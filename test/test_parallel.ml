(* The parallel study runner: pool semantics, sequential/parallel
   byte-identity, and the on-disk study cache (round-trip, poisoning,
   warm-run identity). *)

module Pool = Fisher92_util.Pool
module Study = Fisher92.Study
module Cache = Fisher92.Study_cache
module E = Fisher92.Experiments
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Measure = Fisher92_metrics.Measure
module Profile = Fisher92_profile.Profile
module Fingerprint = Fisher92_analysis.Fingerprint
module Corrupt = Fisher92_testsupport.Corrupt
module T = Fisher92_testsupport.Testsupport
module Fnv = Fisher92_util.Fnv
module Vm = Fisher92_vm.Vm
module Experiment = Fisher92.Experiment
module Gen = QCheck2.Gen

(* Isolate the cache: this suite owns a private directory and must be
   immune to FISHER92_NO_CACHE in the surrounding environment. *)
let cache_dir =
  let d = Filename.temp_file "f92cache" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let () =
  Unix.putenv "FISHER92_CACHE_DIR" cache_dir;
  Unix.putenv "FISHER92_NO_CACHE" ""

(* empty the private cache so the next study run starts cold *)
let clear_cache () =
  Array.iter
    (fun f -> Sys.remove (Filename.concat cache_dir f))
    (Sys.readdir cache_dir)

(* ---------- pool ---------- *)

let test_pool_map_order () =
  let xs = List.init 200 (fun i -> i) in
  Alcotest.(check (list int))
    "order preserved" (List.map (fun i -> i * i) xs)
    (Pool.map ~domains:4 (fun i -> i * i) xs);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 (fun i -> i) []);
  Alcotest.(check (list int)) "singleton" [ 7 ]
    (Pool.map ~domains:4 (fun i -> i) [ 7 ])

let test_pool_mapi () =
  Alcotest.(check (list int))
    "index matches position" [ 10; 21; 32; 43 ]
    (Pool.mapi ~domains:3 (fun i x -> (10 * x) + i) [ 1; 2; 3; 4 ])

let test_pool_one_domain_is_sequential () =
  (* with domains:1 the caller runs everything inline, in order *)
  let trace = ref [] in
  let out =
    Pool.map ~domains:1
      (fun i ->
        trace := i :: !trace;
        i)
      [ 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check (list int)) "results" [ 1; 2; 3; 4; 5 ] out;
  Alcotest.(check (list int)) "evaluation order" [ 1; 2; 3; 4; 5 ]
    (List.rev !trace)

exception Boom of int

let test_pool_exception_propagates () =
  Printexc.record_backtrace true;
  (* several tasks fail; the lowest-indexed failure must win, and the
     join must terminate rather than hang *)
  match
    Pool.map ~domains:4
      (fun i -> if i >= 3 then raise (Boom i) else i)
      (List.init 10 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom k ->
    Alcotest.(check int) "deterministic first failure" 3 k;
    (* the re-raise used Printexc.raise_with_backtrace with the trace
       captured at the original raise site inside the worker *)
    let bt = Printexc.get_backtrace () in
    Alcotest.(check bool)
      (Printf.sprintf "original backtrace carried across the join: %S" bt)
      true
      (String.length bt > 0)

let test_pool_survivors_complete () =
  (* a failure must not discard the other tasks' work: every non-failing
     task still runs (observable via the side-effect counter) *)
  let ran = Atomic.make 0 in
  (match
     Pool.map ~domains:2
       (fun i ->
         if i = 0 then raise (Boom 0);
         Atomic.incr ran;
         i)
       (List.init 8 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom _ -> ());
  Alcotest.(check int) "seven survivors ran" 7 (Atomic.get ran)

(* ---------- persistent pools: lifecycle, poisoning ---------- *)

let test_persistent_pool_reuse () =
  Pool.with_pool ~domains:3 (fun p ->
      Alcotest.(check int) "workers live" 3 (Pool.size p);
      for round = 1 to 5 do
        let out = Pool.run p (fun i x -> i + x) (List.init 20 (fun i -> i)) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.init 20 (fun i -> 2 * i))
          out
      done)

let test_persistent_pool_shutdown_idempotent () =
  let p = Pool.create ~domains:2 () in
  ignore (Pool.run p (fun _ x -> x) [ 1; 2; 3 ]);
  Pool.shutdown p;
  Pool.shutdown p;
  Alcotest.(check int) "no workers" 0 (Pool.size p);
  match Pool.run p (fun _ x -> x) [ 1 ] with
  | _ -> Alcotest.fail "run on a stopped pool must raise"
  | exception Invalid_argument _ -> ()

let test_poisoned_pool_refuses_reuse () =
  let p = Pool.create ~domains:2 () in
  (* a task raising mid-fan-out must drain the batch, join every
     worker, and poison the handle *)
  let ran = Atomic.make 0 in
  (match
     Pool.run p
       (fun i x ->
         if i = 1 then raise (Boom i);
         Atomic.incr ran;
         x)
       (List.init 8 (fun i -> i))
   with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom k -> Alcotest.(check int) "failing task" 1 k);
  Alcotest.(check int) "survivors still ran" 7 (Atomic.get ran);
  Alcotest.(check int) "workers joined" 0 (Pool.size p);
  (match Pool.run p (fun _ x -> x) [ 1 ] with
  | _ -> Alcotest.fail "a poisoned pool must refuse work"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the poisoning: %S" msg)
      true
      (String.length msg > 0));
  (* and shutdown after poisoning stays safe *)
  Pool.shutdown p

let test_with_pool_cleans_up_on_raise () =
  let leaked = ref None in
  (match
     Pool.with_pool ~domains:2 (fun p ->
         leaked := Some p;
         raise (Boom 9))
   with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom 9 -> ()
  | exception e -> raise e);
  match !leaked with
  | None -> Alcotest.fail "pool never materialized"
  | Some p -> Alcotest.(check int) "workers joined on the way out" 0 (Pool.size p)

(* ---------- sequential == parallel (qcheck) ---------- *)

(* subsets drawn from cheap workloads so the property stays fast; the
   pair compress/uncompress keeps the crossmode section non-trivial *)
let subset_gen : string list Gen.t =
  let open Gen in
  let pool = [ "lfk"; "spiff"; "mfcom"; "compress"; "uncompress" ] in
  let* picks = list_repeat (List.length pool) bool in
  let chosen =
    List.filteri (fun i _ -> List.nth picks i) pool
  in
  return (if chosen = [] then [ "lfk" ] else chosen)

let render_study names ~domains =
  let workloads = List.map Registry.find names in
  E.render_all (Study.load ~workloads ~domains ~cache:false ())

let prop_parallel_equals_sequential =
  QCheck2.Test.make ~count:3
    ~name:"parallel Study.load renders byte-identical to sequential"
    ~print:(String.concat " ") subset_gen
    (fun names ->
      String.equal
        (render_study names ~domains:1)
        (render_study names ~domains:4))

(* ---------- study cache ---------- *)

let spiff = lazy (Registry.find "spiff")

let measured_run () =
  let w = Lazy.force spiff in
  let ir = Study.compile_variant w in
  let d = List.hd w.Workload.w_datasets in
  let fp = Fingerprint.program_hash ir in
  let run =
    Measure.of_result ~program:w.w_name ~dataset:d.ds_name
      (Study.execute ir d ())
  in
  (w, ir, d, fp, run)

let run_equal (a : Measure.run) (b : Measure.run) =
  String.equal a.program b.program
  && String.equal a.dataset b.dataset
  && a.counts = b.counts
  && String.equal a.profile.Profile.program b.profile.Profile.program
  && a.profile.Profile.encountered = b.profile.Profile.encountered
  && a.profile.Profile.taken = b.profile.Profile.taken

let entry_file ~fp (w : Workload.t) (d : Workload.dataset) =
  Filename.concat cache_dir
    (Printf.sprintf "%s.%s.%s.run" w.w_name fp (Cache.dataset_hash d))

let test_cache_roundtrip () =
  clear_cache ();
  let w, ir, d, fp, run = measured_run () in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  Alcotest.(check bool) "miss on empty cache" true
    (Cache.lookup ~fingerprint:fp ~n_sites ~program:w.w_name d = None);
  Cache.store ~fingerprint:fp d run;
  (match Cache.lookup ~fingerprint:fp ~n_sites ~program:w.w_name d with
  | None -> Alcotest.fail "stored entry not found"
  | Some back ->
    Alcotest.(check bool) "round-trips exactly" true (run_equal run back));
  (* a different build fingerprint must miss *)
  Alcotest.(check bool) "stale fingerprint misses" true
    (Cache.lookup ~fingerprint:"0000000000000000" ~n_sites ~program:w.w_name d
     = None);
  (* a different site count must be rejected, not misread *)
  Alcotest.(check bool) "site count mismatch misses" true
    (Cache.lookup ~fingerprint:fp ~n_sites:(n_sites + 1) ~program:w.w_name d
     = None)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* poisoned entries: any corruption either misses (recompute) or — when
   the bytes happen to be untouched, e.g. an identity line swap — yields
   the exact original record; and lookup never raises *)
let prop_poisoned_entry_never_trusted =
  let case_gen =
    let open Gen in
    let+ ops = list_size (int_range 1 3) Corrupt.op_gen in
    ops
  in
  QCheck2.Test.make ~count:150
    ~name:"corrupted cache entries are recomputed, never trusted"
    ~print:(fun ops ->
      String.concat "; " (List.map Corrupt.op_name ops))
    case_gen
    (fun ops ->
      let w, ir, d, fp, run = measured_run () in
      let n_sites = Fisher92_ir.Program.n_sites ir in
      clear_cache ();
      Cache.store ~fingerprint:fp d run;
      let path = entry_file ~fp w d in
      let original = read_file path in
      let corrupted = List.fold_left Corrupt.apply_op original ops in
      write_file path corrupted;
      match Cache.lookup ~fingerprint:fp ~n_sites ~program:w.w_name d with
      | None -> true
      | Some back ->
        (* only bit-identical survivors may be served *)
        String.equal corrupted original && run_equal run back)

let test_cache_truncation_and_bitflip () =
  let w, ir, d, fp, run = measured_run () in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  clear_cache ();
  Cache.store ~fingerprint:fp d run;
  let path = entry_file ~fp w d in
  let original = read_file path in
  (* truncation *)
  write_file path (String.sub original 0 (String.length original / 2));
  Alcotest.(check bool) "truncated entry misses" true
    (Cache.lookup ~fingerprint:fp ~n_sites ~program:w.w_name d = None);
  (* single bit flip in the middle (lands inside a checksummed section) *)
  let b = Bytes.of_string original in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 1));
  write_file path (Bytes.to_string b);
  Alcotest.(check bool) "bit-flipped entry misses" true
    (Cache.lookup ~fingerprint:fp ~n_sites ~program:w.w_name d = None);
  (* a future format version must also miss *)
  write_file path
    ("fisher92runcache 999\n"
    ^ String.concat "\n"
        (List.tl (String.split_on_char '\n' original)));
  Alcotest.(check bool) "version mismatch misses" true
    (Cache.lookup ~fingerprint:fp ~n_sites ~program:w.w_name d = None)

let test_warm_cache_identical () =
  clear_cache ();
  let names = [ "lfk"; "compress"; "uncompress" ] in
  let workloads () = List.map Registry.find names in
  let cold, cold_tm = Study.load_timed ~workloads:(workloads ()) () in
  let warm, warm_tm = Study.load_timed ~workloads:(workloads ()) () in
  Alcotest.(check bool) "cold run simulated everything" true
    (List.for_all
       (fun tm -> List.for_all (fun r -> not r.Study.rt_cached) tm.Study.tm_runs)
       cold_tm);
  Alcotest.(check bool) "warm run served everything from cache" true
    (List.for_all
       (fun tm -> List.for_all (fun r -> r.Study.rt_cached) tm.Study.tm_runs)
       warm_tm);
  Alcotest.(check string) "rendered output byte-identical"
    (E.render_all cold) (E.render_all warm)

let test_progress_events () =
  clear_cache ();
  let events = ref [] in
  let _ =
    Study.load
      ~workloads:[ Registry.find "lfk" ]
      ~progress:(fun e -> events := e :: !events)
      ()
  in
  let compiles, runs =
    List.partition (function Study.Compiled _ -> true | _ -> false) !events
  in
  Alcotest.(check int) "one compile event" 1 (List.length compiles);
  Alcotest.(check int) "one run event per dataset" 1 (List.length runs)

(* ---------- cache keys ---------- *)

(* dataset_hash as first defined, through printed strings *)
let reference_dataset_hash (d : Workload.dataset) =
  let h = ref (Fnv.fold Fnv.seed d.ds_name) in
  let add s = h := Fnv.fold (Fnv.fold !h s) "\n" in
  let float x = add (Printf.sprintf "%Lx" (Int64.bits_of_float x)) in
  List.iter (fun k -> add (string_of_int k)) d.ds_iargs;
  add "|";
  List.iter float d.ds_fargs;
  List.iter
    (fun (name, seed) ->
      add ("array " ^ name);
      match seed with
      | `Ints cells -> Array.iter (fun k -> add (string_of_int k)) cells
      | `Floats cells -> Array.iter float cells)
    d.ds_arrays;
  Fnv.to_hex !h

let test_dataset_hash_reference () =
  let extremes =
    {
      Workload.ds_name = "extremes";
      ds_descr = "";
      ds_iargs = [ 0; -1; min_int; max_int ];
      ds_fargs = [ 0.; -0.; nan; infinity ];
      ds_arrays =
        [
          ("i", `Ints [| min_int; -10; 0; 9; max_int |]);
          ("f", `Floats [| neg_infinity; -0.; 1e-300; nan |]);
        ];
    }
  in
  List.iter
    (fun (d : Workload.dataset) ->
      Alcotest.(check string) d.ds_name (reference_dataset_hash d)
        (Cache.dataset_hash d))
    (extremes
    :: List.concat_map (fun (w : Workload.t) -> w.w_datasets) (Registry.all ()))

let no_inputs =
  {
    Workload.ds_name = "none";
    ds_descr = "";
    ds_iargs = [];
    ds_fargs = [];
    ds_arrays = [];
  }

(* builds that differ only in a constant are different cache entries *)
let test_constant_edit_misses () =
  clear_cache ();
  let measure bound =
    Study.measure ~program:"bounded" (T.compile (T.counted_loop bound))
      no_inputs
  in
  let a, cached_a = measure 100 in
  Alcotest.(check bool) "first run misses" false cached_a;
  Alcotest.(check bool) "the same build hits" true (snd (measure 100));
  let b, cached_b = measure 200 in
  Alcotest.(check bool) "the edited build misses" false cached_b;
  Alcotest.(check bool) "and is measured afresh" true
    (a.run.counts.instructions <> b.run.counts.instructions)

(* ---------- cached experiment variants ---------- *)

let variant_sections =
  [ "table1"; "inline"; "gaps"; "switchsort"; "overhead"; "staleness" ]

(* mfcom has a switch, so switchsort has a row *)
let variant_study =
  lazy
    (Study.load ~cache:false
       ~workloads:(List.map Registry.find [ "lfk"; "spiff"; "mfcom" ])
       ())

let render_variants () =
  let study = Lazy.from_val (Lazy.force variant_study) in
  String.concat ""
    (List.map
       (fun id ->
         let e = List.find (fun e -> e.Experiment.e_id = id) (E.registry ()) in
         Experiment.render_text e study)
       variant_sections)

let snapshot () =
  List.map
    (fun f ->
      let st = Unix.stat (Filename.concat cache_dir f) in
      (f, st.Unix.st_size, st.Unix.st_mtime, st.Unix.st_ino))
    (List.sort compare (Array.to_list (Sys.readdir cache_dir)))

let index_of text sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length text then None
    else if String.sub text i n = sub then Some i
    else go (i + 1)
  in
  go 0

let test_variants_warm_untouched () =
  clear_cache ();
  let cold = render_variants () in
  let before = snapshot () in
  let warm = render_variants () in
  Alcotest.(check string) "warm output byte-identical" cold warm;
  Alcotest.(check bool) "warm pass left every entry untouched" true
    (before = snapshot ());
  Unix.putenv "FISHER92_NO_CACHE" "1";
  let uncached =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "FISHER92_NO_CACHE" "")
      render_variants
  in
  Alcotest.(check string) "cache disabled renders the same" cold uncached

(* flip one byte inside the first [section] of one entry carrying it:
   the section must recompute it, render the same, and rewrite it *)
let check_flipped_entry_recomputed section =
  let header = "\n" ^ section ^ "\n" in
  clear_cache ();
  let cold = render_variants () in
  let path =
    match
      List.find_opt
        (fun (f, _, _, _) ->
          index_of (read_file (Filename.concat cache_dir f)) header <> None)
        (snapshot ())
    with
    | Some (f, _, _, _) -> Filename.concat cache_dir f
    | None -> Alcotest.failf "no cached entry has a %s section" section
  in
  let original = read_file path in
  (* the first byte of the section's first body line *)
  let at = Option.get (index_of original header) + String.length header in
  let b = Bytes.of_string original in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
  write_file path (Bytes.to_string b);
  let ino = (Unix.stat path).Unix.st_ino in
  Alcotest.(check string) (section ^ ": recomputed output identical") cold
    (render_variants ());
  Alcotest.(check string) (section ^ ": entry rewritten") original
    (read_file path);
  Alcotest.(check bool) (section ^ ": by a fresh write") true
    ((Unix.stat path).Unix.st_ino <> ino)

let test_flipped_gaps_entry () = check_flipped_entry_recomputed "gaps"
let test_flipped_dump_entry () = check_flipped_entry_recomputed "dump"

(* the predicted bits are part of the key: a gaps entry recorded under
   one prediction is never served for another *)
let test_gaps_keyed_by_prediction () =
  let w, ir, d, _, run = measured_run () in
  clear_cache ();
  let measure p =
    Study.measure
      ~config:{ Vm.default_config with predicted = Some p }
      ~program:w.w_name ir d
  in
  let self = Measure.self_prediction run in
  let flipped = Array.map not self in
  let e_self, c1 = measure self in
  let self_file =
    match Sys.readdir cache_dir with
    | [| f |] -> Filename.concat cache_dir f
    | _ -> Alcotest.fail "expected exactly one entry"
  in
  let e_flipped, c2 = measure flipped in
  Alcotest.(check (list bool)) "both miss cold" [ false; false ] [ c1; c2 ];
  Alcotest.(check bool) "the predictions record different gaps" true
    (e_self.gaps <> e_flipped.gaps);
  let flipped_file =
    match
      List.filter
        (fun f -> not (String.equal (Filename.concat cache_dir f) self_file))
        (Array.to_list (Sys.readdir cache_dir))
    with
    | [ f ] -> Filename.concat cache_dir f
    | _ -> Alcotest.fail "expected a second entry"
  in
  let e, c = measure flipped in
  Alcotest.(check bool) "own entry hits" true (c && e.gaps = e_flipped.gaps);
  (* the other prediction's entry, renamed into place, is refused *)
  write_file flipped_file (read_file self_file);
  let e, c = measure flipped in
  Alcotest.(check bool) "a foreign gaps entry misses" false c;
  Alcotest.(check bool) "and the run is recomputed" true
    (e.gaps = e_flipped.gaps);
  Alcotest.check_raises "hooked runs are refused"
    (Invalid_argument
       "Study_cache.key: a run with an on_branch hook cannot be cached")
    (fun () ->
      ignore
        (Study.measure
           ~config:{ Vm.default_config with on_branch = Some (fun _ _ -> ()) }
           ~program:w.w_name ir d))

(* Race entries are keyed by every scheme argument, not by the display
   name: each pair below shares a [scheme_name] but not a key, and an
   entry of one, renamed onto the other's path, is refused. *)
let test_race_keys_cover_scheme () =
  let module Dynamic = Fisher92_predict.Dynamic in
  let w, ir, d, _, _ = measured_run () in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  let k =
    Cache.key ~fingerprint:(Fingerprint.program_hash ir) ~n_sites
      ~program:w.w_name d
  in
  let tally seed =
    let site_correct = Array.init n_sites (fun s -> (s * seed) mod 7) in
    let site_incorrect = Array.init n_sites (fun s -> (s + seed) mod 3) in
    let sum = Array.fold_left ( + ) 0 in
    {
      Dynamic.correct = sum site_correct;
      incorrect = sum site_incorrect;
      site_correct;
      site_incorrect;
    }
  in
  let bimode c = Dynamic.Bimode { history_bits = 12; choice_bits = c } in
  let tage t g =
    Dynamic.Tage { table_bits = t; tag_bits = g; histories = [ 4; 8; 16 ] }
  in
  let warm = Array.make n_sites true in
  let pairs =
    [
      ("bimode choice_bits", (bimode 10, None), (bimode 12, None));
      ("tage table_bits", (tage 10 8, None), (tage 11 8, None));
      ("tage tag_bits", (tage 10 8, None), (tage 10 9, None));
      ("cold vs warm", (bimode 10, None), (bimode 10, Some warm));
    ]
  in
  List.iter
    (fun (what, (sa, wa), (sb, wb)) ->
      clear_cache ();
      let ka = Cache.race_key k ?warm:wa sa in
      let kb = Cache.race_key k ?warm:wb sb in
      Cache.save_race ka (tally 1);
      let file_a = Sys.readdir cache_dir in
      Cache.save_race kb (tally 2);
      let file_b =
        List.filter
          (fun f -> not (Array.mem f file_a))
          (Array.to_list (Sys.readdir cache_dir))
      in
      let path f = Filename.concat cache_dir f in
      match (file_a, file_b) with
      | [| a |], [ b ] ->
        Alcotest.(check bool) (what ^ ": own entries hit") true
          (Cache.find_race ka = Some (tally 1)
          && Cache.find_race kb = Some (tally 2));
        write_file (path b) (read_file (path a));
        Alcotest.(check bool) (what ^ ": a renamed entry misses") true
          (Cache.find_race kb = None)
      | _ -> Alcotest.failf "%s: expected two distinct entries" what)
    pairs;
  Alcotest.(check bool) "the pairs share display names" true
    (Dynamic.scheme_name (bimode 10) = Dynamic.scheme_name (bimode 12)
    && Dynamic.scheme_name (tage 10 8) = Dynamic.scheme_name (tage 11 8)
    && Dynamic.scheme_name (tage 10 8) = Dynamic.scheme_name (tage 10 9));
  let schemes =
    List.sort_uniq compare
      (E.zoo_schemes () @ E.dynsim_schemes ()
      @ [ bimode 12; tage 11 8; tage 10 9 ])
  in
  Alcotest.(check int) "every distinct scheme has its own key"
    (List.length schemes)
    (List.length
       (List.sort_uniq compare (List.map Dynamic.scheme_key schemes)));
  Alcotest.check_raises "Static has no key"
    (Invalid_argument "Dynamic.scheme_key: a Static scheme has no cache key")
    (fun () -> ignore (Dynamic.scheme_key (Dynamic.Static [||])))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map keeps order" `Quick test_pool_map_order;
          Alcotest.test_case "mapi" `Quick test_pool_mapi;
          Alcotest.test_case "1 domain is sequential" `Quick
            test_pool_one_domain_is_sequential;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "persistent pool reuse" `Quick
            test_persistent_pool_reuse;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_persistent_pool_shutdown_idempotent;
          Alcotest.test_case "poisoned pool refuses reuse" `Quick
            test_poisoned_pool_refuses_reuse;
          Alcotest.test_case "with_pool cleans up on raise" `Quick
            test_with_pool_cleans_up_on_raise;
          Alcotest.test_case "survivors complete" `Quick
            test_pool_survivors_complete;
        ] );
      ("determinism", q [ prop_parallel_equals_sequential ]);
      ( "cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "truncation/bitflip/version" `Quick
            test_cache_truncation_and_bitflip;
          Alcotest.test_case "warm run identical" `Slow
            test_warm_cache_identical;
          Alcotest.test_case "progress events" `Quick test_progress_events;
        ] );
      ( "cache keys",
        [
          Alcotest.test_case "dataset hash = printed-string definition"
            `Quick test_dataset_hash_reference;
          Alcotest.test_case "constant-only edit misses" `Quick
            test_constant_edit_misses;
          Alcotest.test_case "gaps keyed by prediction" `Quick
            test_gaps_keyed_by_prediction;
          Alcotest.test_case "race keys cover every scheme argument" `Quick
            test_race_keys_cover_scheme;
        ] );
      ( "cache entry",
        [
          Alcotest.test_case "warm pass identical and untouched" `Slow
            test_variants_warm_untouched;
          Alcotest.test_case "flipped gaps entry recomputed" `Slow
            test_flipped_gaps_entry;
          Alcotest.test_case "flipped dump entry recomputed" `Slow
            test_flipped_dump_entry;
        ] );
      ("poisoning", q [ prop_poisoned_entry_never_trusted ]);
    ]
