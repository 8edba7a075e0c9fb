(* The benchmark's own code: its percentile rule and its output checks. *)

open Perfbench

let golden_dir = Filename.concat (Filename.concat ".." "test") "golden"

let goldens () =
  Sys.readdir golden_dir |> Array.to_list |> List.sort compare
  |> List.filter_map (fun f ->
         if Filename.check_suffix f ".txt" then
           Some
             ( Filename.chop_suffix f ".txt",
               Checks.read_file (Filename.concat golden_dir f) )
         else None)

(* Flip one byte of one section's text. *)
let perturb sections id =
  List.map
    (fun (i, text) ->
      if i <> id then (i, text)
      else
        let b = Bytes.of_string text in
        let k = Bytes.length b / 2 in
        Bytes.set b k (Char.chr (Char.code (Bytes.get b k) lxor 1));
        (i, Bytes.to_string b))
    sections

let test_rank () =
  Alcotest.(check int) "p50 of 4" 2 (Sample.rank ~p:50 4);
  Alcotest.(check int) "p99 of 1000" 990 (Sample.rank ~p:99 1000);
  Alcotest.(check int) "p99 of 64 is the maximum" 64 (Sample.rank ~p:99 64);
  Alcotest.(check int) "p1 of 1" 1 (Sample.rank ~p:1 1)

let test_percentile () =
  let sorted n = Array.init n float_of_int in
  let value p n =
    Option.map (fun x -> x.Sample.value) (Sample.percentile ~p (sorted n))
  in
  let check = Alcotest.(check (option (float 0.))) in
  check "p99 of 1000 samples" (Some 989.) (value 99 1000);
  check "p99 of 999: 9 beyond" None (value 99 999);
  check "p99 of 64 is withheld" None (value 99 64);
  check "p50 of 20: 10 beyond" (Some 9.) (value 50 20);
  check "p50 of 19" None (value 50 19);
  match Sample.percentile ~p:99 (sorted 4321) with
  | Some x ->
    Alcotest.(check int) "sample count" 4321 x.n;
    Alcotest.(check int) "beyond" (4321 - Sample.rank ~p:99 4321) x.beyond
  | None -> Alcotest.fail "p99 of 4321 samples withheld"

let test_median () =
  Alcotest.(check (float 0.)) "odd" 2. (Sample.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Sample.median [ 4.; 1.; 3.; 2. ])

let test_golden_check () =
  let sections = goldens () in
  Alcotest.(check (list string)) "goldens match themselves" []
    (Checks.golden_mismatches ~dir:golden_dir sections);
  List.iter
    (fun (id, _) ->
      Alcotest.(check (list string)) ("one byte of " ^ id) [ id ]
        (Checks.golden_mismatches ~dir:golden_dir (perturb sections id)))
    sections;
  let id = fst (List.hd sections) in
  Alcotest.(check (list string)) "a section without output" [ id ]
    (Checks.golden_mismatches ~dir:golden_dir (List.tl sections))

let test_digest_check () =
  let sections = goldens () in
  let reference = Checks.digests sections in
  Alcotest.(check (list string)) "equal runs" []
    (Checks.digest_mismatches ~reference (Checks.digests sections));
  List.iter
    (fun (id, _) ->
      let perturbed = Checks.digests (perturb sections id) in
      Alcotest.(check (list string)) ("one byte of " ^ id) [ id ]
        (Checks.digest_mismatches ~reference perturbed))
    sections;
  Alcotest.(check (list string)) "a missing section" [ fst (List.hd sections) ]
    (Checks.digest_mismatches ~reference (List.tl reference))

let test_cache_check () =
  let check = Alcotest.(check (option string)) in
  let ok = Checks.cache_mismatch ~expected:51 in
  check "cold run on empty stores" None (ok ~cold:true ~hits:0 ~misses:51);
  check "warm run on filled stores" None (ok ~cold:false ~hits:51 ~misses:0);
  List.iter
    (fun (cold, hits, misses) ->
      Alcotest.(check bool)
        (Printf.sprintf "%d hits, %d misses" hits misses)
        true
        (Option.is_some (ok ~cold ~hits ~misses)))
    [ (false, 50, 1); (false, 0, 51); (true, 51, 0); (true, 1, 50) ]

(* A store entry replaced the way the program writes it (a temporary
   file renamed over the old one) changes the snapshot even when its
   bytes are the same; reading it does not. *)
let test_snapshot () =
  let dir = "snapshot-store" in
  let sub = Filename.concat dir "trace" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  (try Sys.mkdir sub 0o755 with Sys_error _ -> ());
  let write path text =
    Out_channel.with_open_bin (path ^ ".tmp") (fun oc ->
        output_string oc text);
    Sys.rename (path ^ ".tmp") path
  in
  let entry = Filename.concat sub "lfk.trace" in
  write entry "trace bytes";
  write (Filename.concat dir "cache-entry") "measurement";
  let before = Checks.snapshot dir in
  Alcotest.(check int) "files" 2 (List.length before);
  Alcotest.(check int) "traces" 1 (Checks.store_files ~suffix:".trace" before);
  ignore (Checks.read_file entry);
  Alcotest.(check bool) "read leaves it" true (Checks.snapshot dir = before);
  write entry "trace bytes";
  Alcotest.(check bool) "rewrite shows" false (Checks.snapshot dir = before);
  Alcotest.(check int) "missing dir" 0 (List.length (Checks.snapshot "absent"))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "perfbench"
    [
      ( "sample",
        [
          quick "nearest rank" test_rank;
          quick "percentile needs 10 beyond" test_percentile;
          quick "median" test_median;
        ] );
      ( "checks",
        [
          quick "golden check fails on one byte" test_golden_check;
          quick "digest check fails on one byte" test_digest_check;
          quick "cache check needs all hits or all misses" test_cache_check;
          quick "a rewritten store entry changes the snapshot" test_snapshot;
        ] );
    ]
