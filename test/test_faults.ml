(* Fault-injection harness for the profile database.

   Random databases are serialized (v1 and v2), hit with randomized
   corruptions -- bit flips, truncation, chunk deletion, splicing,
   line shuffles, and compositions of those -- and fed to
   [Db.load_lenient], which must:

   - never raise, no matter the input bytes;
   - never fabricate counts (every recovered profile satisfies
     [0 <= taken <= encountered] per site, with the right site count);
   - recover, bit-exact, every dataset whose section survived the
     corruption untouched (along with the meta/header it depends on).

   The "untouched" criterion is syntactic: the corrupted text's lines
   still contain the original section block as a contiguous run, with
   the block's header line being the first occurrence of that line
   (so a spliced-then-damaged earlier copy cannot shadow it).

   The same corruptions hit random study-cache entries (format v2, with
   optional gaps and dump sections) and race entries (per-site predictor
   tallies), whose strict readers must miss on every damaged entry
   rather than serve it. *)

module Gen = QCheck2.Gen
module Db = Fisher92_profile.Db
module Profile = Fisher92_profile.Profile

(* ---------- random databases ---------- *)

let string_of_exactly n chars =
  let open Gen in
  let+ idx = list_repeat n (int_bound (String.length chars - 1)) in
  String.init n (fun i -> chars.[List.nth idx i])

let gen_string_of chars =
  let open Gen in
  let* n = int_range 1 8 in
  string_of_exactly n chars

let name_gen = gen_string_of "abcdefg xyz-_" (* spaces are legal: names are sized *)
let program_gen = gen_string_of "abcdefgh" (* v1 headers cannot carry spaces *)
let key_gen = gen_string_of "abc|#LD0123456789"
let hex_gen = string_of_exactly 16 "0123456789abcdef"

let counters_gen n_sites =
  let open Gen in
  let* all_zero = frequency [ (1, return true); (4, return false) ] in
  if all_zero then return (Array.make n_sites 0, Array.make n_sites 0)
  else
    let+ pairs =
      list_repeat n_sites
        (let* e = int_range 0 50 in
         let+ t = int_range 0 e in
         (e, t))
    in
    (Array.of_list (List.map fst pairs), Array.of_list (List.map snd pairs))

let db_gen : Db.t Gen.t =
  let open Gen in
  let* program = program_gen in
  let* n_sites = int_range 0 12 in
  let* n_datasets = int_range 0 4 in
  let* names = list_repeat n_datasets name_gen in
  (* force distinct dataset names *)
  let names = List.mapi (fun i s -> Printf.sprintf "%s#%d" s i) names in
  let* counters = list_repeat n_datasets (counters_gen n_sites) in
  let* identity =
    let* with_id = bool in
    if not with_id then return None
    else
      let* fp = hex_gen in
      let+ keys = list_repeat n_sites key_gen in
      Some (fp, Array.of_list keys)
  in
  let db = Db.create ~program ~n_sites in
  List.iter2
    (fun name (encountered, taken) ->
      Db.record db ~dataset:name { Profile.program; encountered; taken })
    names counters;
  (match identity with
  | Some (fp, keys) -> Db.set_identity db ~fingerprint:fp ~sitekeys:keys
  | None -> ());
  return db

(* ---------- corruption operators (shared with the study-cache
   poisoning tests via the support library) ---------- *)

module Corrupt = Fisher92_testsupport.Corrupt

let op_name = Corrupt.op_name
let apply_op = Corrupt.apply_op
let op_gen = Corrupt.op_gen

let case_gen : (Db.t * bool * Corrupt.op list) Gen.t =
  let open Gen in
  let* db = db_gen in
  let* v1 = frequency [ (1, return true); (3, return false) ] in
  let+ ops = list_size (int_range 1 3) op_gen in
  (db, v1, ops)

let print_case (db, v1, ops) =
  Printf.sprintf "ops=[%s] on %s:\n%s"
    (String.concat "; " (List.map op_name ops))
    (if v1 then "v1" else "v2")
    (if v1 then Db.save_v1 db else Db.save db)

(* ---------- block helpers (the "untouched" criterion) ---------- *)

let find_idx arr p =
  let n = Array.length arr in
  let rec go i = if i >= n then None else if p arr.(i) then Some i else go (i + 1) in
  go 0

let sized s = Printf.sprintf "%d %s" (String.length s) s

(* contiguous run from the first line equal to [header] through the first
   subsequent line satisfying [is_end], inclusive *)
let block lines ~header ~is_end =
  match find_idx lines (String.equal header) with
  | None -> None
  | Some i ->
    let rec go j =
      if j >= Array.length lines then None
      else if is_end lines.(j) then Some (Array.sub lines i (j - i + 1))
      else go (j + 1)
    in
    go (i + 1)

(* the first occurrence of blk.(0) in [lines] must begin the whole block *)
let survives lines blk =
  match find_idx lines (String.equal blk.(0)) with
  | None -> false
  | Some i ->
    Array.length lines - i >= Array.length blk
    && (let ok = ref true in
        Array.iteri (fun k l -> if lines.(i + k) <> l then ok := false) blk;
        !ok)

let split_lines text = Array.of_list (String.split_on_char '\n' text)

let sane_counts db =
  List.for_all
    (fun d ->
      let p = Db.profile db ~dataset:d in
      Profile.n_sites p = Db.n_sites db
      && Array.for_all (fun e -> e >= 0) p.Profile.encountered
      && (let ok = ref true in
          Array.iteri
            (fun s t ->
              if t < 0 || t > p.Profile.encountered.(s) then ok := false)
            p.Profile.taken;
          !ok))
    (Db.datasets db)

(* ---------- properties ---------- *)

(* the headline requirement: >= 500 randomized corruptions, lenient
   loading never raises and never fabricates counts *)
let prop_lenient_never_raises =
  QCheck2.Test.make ~count:500
    ~name:"lenient load never raises, never fabricates (500 corruptions)"
    ~print:print_case case_gen
    (fun (db, v1, ops) ->
      let text = if v1 then Db.save_v1 db else Db.save db in
      let corrupted = List.fold_left apply_op text ops in
      let loaded, report = Db.load_lenient corrupted in
      sane_counts loaded
      && List.length (Db.datasets loaded) = List.length report.Db.r_recovered)

let prop_untouched_recovered =
  QCheck2.Test.make ~count:300
    ~name:"datasets whose section survives corruption are recovered intact"
    ~print:print_case case_gen
    (fun (db, v1, ops) ->
      let text = if v1 then Db.save_v1 db else Db.save db in
      let olines = split_lines text in
      let corrupted = List.fold_left apply_op text ops in
      let clines = split_lines corrupted in
      let preamble_ok =
        if v1 then
          Array.length clines > 0 && String.equal clines.(0) olines.(0)
        else
          Array.length clines > 0
          && String.equal clines.(0) "ifprobdb2"
          &&
          match
            block olines ~header:"meta"
              ~is_end:(String.starts_with ~prefix:"endmeta ")
          with
          | Some meta -> survives clines meta
          | None -> false
      in
      if not preamble_ok then true
      else
        let loaded, _ = Db.load_lenient corrupted in
        List.for_all
          (fun d ->
            let header = "dataset " ^ sized d in
            let is_end =
              if v1 then String.equal "end"
              else String.starts_with ~prefix:"enddataset "
            in
            match block olines ~header ~is_end with
            | None -> true
            | Some blk ->
              (not (survives clines blk))
              || List.mem d (Db.datasets loaded)
                 && (let a = Db.profile db ~dataset:d in
                     let b = Db.profile loaded ~dataset:d in
                     a.Profile.encountered = b.Profile.encountered
                     && a.Profile.taken = b.Profile.taken))
          (Db.datasets db))

(* satellite: load (save db) = db, including zero-site programs, empty
   datasets and all-zero counters *)
let db_equal a b =
  String.equal (Db.program a) (Db.program b)
  && Db.n_sites a = Db.n_sites b
  && Db.datasets a = Db.datasets b
  && Db.fingerprint a = Db.fingerprint b
  && Db.sitekeys a = Db.sitekeys b
  && List.for_all
       (fun d ->
         let pa = Db.profile a ~dataset:d and pb = Db.profile b ~dataset:d in
         pa.Profile.encountered = pb.Profile.encountered
         && pa.Profile.taken = pb.Profile.taken)
       (Db.datasets a)

let prop_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"load (save db) = db"
    ~print:(fun db -> Db.save db)
    db_gen
    (fun db -> db_equal db (Db.load (Db.save db)))

let prop_save_stable =
  QCheck2.Test.make ~count:300 ~name:"save (load (save db)) = save db"
    ~print:(fun db -> Db.save db)
    db_gen
    (fun db ->
      let text = Db.save db in
      String.equal text (Db.save (Db.load text)))

let prop_v1_roundtrip =
  QCheck2.Test.make ~count:300
    ~name:"v1: load (save_v1 db) keeps counters (identity is v2-only)"
    ~print:(fun db -> Db.save_v1 db)
    db_gen
    (fun db ->
      let back = Db.load (Db.save_v1 db) in
      String.equal (Db.program back) (Db.program db)
      && Db.n_sites back = Db.n_sites db
      && Db.datasets back = Db.datasets db
      && Db.fingerprint back = None
      && List.for_all
           (fun d ->
             let pa = Db.profile db ~dataset:d in
             let pb = Db.profile back ~dataset:d in
             pa.Profile.encountered = pb.Profile.encountered
             && pa.Profile.taken = pb.Profile.taken)
           (Db.datasets db))

let prop_lenient_on_clean =
  QCheck2.Test.make ~count:200
    ~name:"lenient load of an intact file recovers everything, clean report"
    ~print:(fun db -> Db.save db)
    db_gen
    (fun db ->
      let loaded, report = Db.load_lenient (Db.save db) in
      Db.clean report && db_equal db loaded)

(* ---------- study-cache entries (format v2): the same corruption
    corpus over random entries with gaps and dump sections ---------- *)

module Cache = Fisher92.Study_cache
module Sectfile = Fisher92_util.Sectfile
module Breaks = Fisher92_metrics.Breaks
module Vm = Fisher92_vm.Vm
module Workload = Fisher92_workloads.Workload

(* a private cache directory, immune to FISHER92_NO_CACHE *)
let cache_dir =
  let d = Filename.temp_file "f92faults" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  Unix.putenv "FISHER92_CACHE_DIR" d;
  Unix.putenv "FISHER92_NO_CACHE" "";
  d

let clear_cache () =
  Array.iter
    (fun f -> Sys.remove (Filename.concat cache_dir f))
    (Sys.readdir cache_dir)

let dataset =
  {
    Workload.ds_name = "d 1";
    ds_descr = "";
    ds_iargs = [ 3; -7 ];
    ds_fargs = [ 0.5 ];
    ds_arrays = [ ("a", `Ints [| 1; 2; 3 |]) ];
  }

(* a key (through its config) and an entry consistent with it *)
let entry_gen : (Cache.key * Cache.entry) Gen.t =
  let open Gen in
  let* program = program_gen in
  let* n_sites = int_range 0 12 in
  let* encountered, taken = counters_gen n_sites in
  let* c = list_repeat 5 (int_range 0 1_000_000) in
  let* predicted = opt (array_repeat n_sites bool) in
  let* hist = list_size (int_range 0 40) (int_range 0 50) in
  let* gap_sum = int_range 0 100_000 in
  let* names = list_size (int_range 0 2) name_gen in
  let+ cells =
    list_repeat (List.length names) (array_size (int_range 0 16) int)
  in
  let names = List.mapi (fun i s -> Printf.sprintf "%s#%d" s i) names in
  let config =
    { Vm.default_config with predicted; dump_arrays = names }
  in
  let counts =
    match c with
    | [ instructions; cond_branches; unavoidable; direct_call_ret; jumps ] ->
      {
        Breaks.instructions;
        cond_branches;
        unavoidable;
        direct_call_ret;
        jumps;
      }
    | _ -> assert false
  in
  let hist = Array.of_list hist in
  ( Cache.key ~config ~fingerprint:"0123456789abcdef" ~n_sites ~program
      dataset,
    {
      Cache.run =
        {
          Fisher92_metrics.Measure.program;
          dataset = dataset.ds_name;
          counts;
          profile = { Profile.program; encountered; taken };
        };
      gaps =
        Option.map
          (fun _ ->
            {
              Cache.gap_count = Array.fold_left ( + ) 0 hist;
              gap_sum;
              gap_histogram = hist;
            })
          predicted;
      dumped = List.combine names cells;
    } )

(* save, and return the one file the save wrote *)
let saved_entry key entry =
  clear_cache ();
  Cache.save key entry;
  match Sys.readdir cache_dir with
  | [| f |] -> Filename.concat cache_dir f
  | _ -> failwith "expected exactly one cache entry"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let prop_cache_entry_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"study cache: find (save entry) = entry"
    entry_gen
    (fun (key, entry) ->
      ignore (saved_entry key entry);
      Cache.find key = Some entry)

let prop_cache_entry_never_trusted =
  QCheck2.Test.make ~count:300
    ~name:"study cache: corrupted v2 entries miss, never served"
    ~print:(fun (_, ops) -> String.concat "; " (List.map op_name ops))
    Gen.(pair entry_gen (list_size (int_range 1 3) op_gen))
    (fun ((key, entry), ops) ->
      let path = saved_entry key entry in
      let original = read_file path in
      let corrupted = List.fold_left apply_op original ops in
      write_file path corrupted;
      match Cache.find key with
      | None -> true
      | Some back -> String.equal corrupted original && back = entry)

(* a declared count far beyond the bytes present, under a valid
   checksum, is refused without allocating it *)
let test_cache_huge_count () =
  let key =
    Cache.key
      ~config:{ Vm.default_config with dump_arrays = [ "big" ] }
      ~fingerprint:"0123456789abcdef" ~n_sites:0 ~program:"p" dataset
  in
  let entry =
    {
      Cache.run =
        {
          Fisher92_metrics.Measure.program = "p";
          dataset = dataset.ds_name;
          counts =
            {
              Breaks.instructions = 1;
              cond_branches = 0;
              unavoidable = 0;
              direct_call_ret = 0;
              jumps = 0;
            };
          profile = { Profile.program = "p"; encountered = [||]; taken = [||] };
        };
      gaps = None;
      dumped = [ ("big", [| 1; 2; 3 |]) ];
    }
  in
  let path = saved_entry key entry in
  Alcotest.(check bool) "intact entry hits" true (Cache.find key = Some entry);
  let lines = String.split_on_char '\n' (read_file path) in
  let huge = Printf.sprintf "cells %d" max_int in
  let rec patch = function
    | "dump" :: name :: "cells 3" :: cells :: _ :: rest ->
      let body = [ "dump"; name; huge; cells ] in
      body @ [ "enddump " ^ Sectfile.checksum_of body ] @ rest
    | l :: rest -> l :: patch rest
    | [] -> []
  in
  let patched = patch lines in
  Alcotest.(check bool) "the count line was patched" true (patched <> lines);
  write_file path (String.concat "\n" patched);
  let before = Gc.minor_words () in
  Alcotest.(check bool) "huge cell count misses" true (Cache.find key = None);
  Alcotest.(check bool) "without allocating it" true
    (Gc.minor_words () -. before < 100_000.)

(* ---------- race entries: one scheme's tallies over one trace ---------- *)

module Dynamic = Fisher92_predict.Dynamic

let scheme_gen =
  Gen.oneofl
    [
      Dynamic.Last_direction;
      Dynamic.Two_bit;
      Dynamic.Gshare { history_bits = 12 };
      Dynamic.Bimode { history_bits = 12; choice_bits = 10 };
      Dynamic.Tage { table_bits = 10; tag_bits = 8; histories = [ 4; 8; 16 ] };
    ]

(* a race key and a tally consistent with it *)
let race_gen : (Cache.race_key * Dynamic.tally) Gen.t =
  let open Gen in
  let* program = program_gen in
  let* n_sites = int_range 0 12 in
  let* encountered, taken = counters_gen n_sites in
  let* warm = opt (array_repeat n_sites bool) in
  let+ scheme = scheme_gen in
  let sum = Array.fold_left ( + ) 0 in
  let missed = Array.mapi (fun s e -> e - taken.(s)) encountered in
  ( Cache.race_key
      (Cache.key ~fingerprint:"0123456789abcdef" ~n_sites ~program dataset)
      ?warm scheme,
    {
      Dynamic.correct = sum taken;
      incorrect = sum missed;
      site_correct = taken;
      site_incorrect = missed;
    } )

let saved_race key tally =
  clear_cache ();
  Cache.save_race key tally;
  match Sys.readdir cache_dir with
  | [| f |] -> Filename.concat cache_dir f
  | _ -> failwith "expected exactly one race entry"

let prop_race_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"race entry: find (save tally) = tally"
    race_gen
    (fun (key, tally) ->
      ignore (saved_race key tally);
      Cache.find_race key = Some tally)

let prop_race_never_trusted =
  QCheck2.Test.make ~count:300
    ~name:"race entry: corrupted entries miss, never served"
    ~print:(fun (_, ops) -> String.concat "; " (List.map op_name ops))
    Gen.(pair race_gen (list_size (int_range 1 3) op_gen))
    (fun ((key, tally), ops) ->
      let path = saved_race key tally in
      let original = read_file path in
      let corrupted = List.fold_left apply_op original ops in
      write_file path corrupted;
      match Cache.find_race key with
      | None -> true
      | Some back -> String.equal corrupted original && back = tally)

(* A site or entry count far beyond the bytes present, under a valid
   checksum, is refused without allocating it. *)
let test_race_huge_count () =
  let n_sites = 3 in
  let key =
    Cache.race_key
      (Cache.key ~fingerprint:"0123456789abcdef" ~n_sites ~program:"p" dataset)
      Dynamic.Two_bit
  in
  let tally =
    {
      Dynamic.correct = 5;
      incorrect = 2;
      site_correct = [| 4; 0; 1 |];
      site_incorrect = [| 1; 0; 1 |];
    }
  in
  let path = saved_race key tally in
  Alcotest.(check bool) "intact entry hits" true
    (Cache.find_race key = Some tally);
  let lines = String.split_on_char '\n' (read_file path) in
  (* replace [line] inside the section opened by [header] and re-seal
     the section's checksum *)
  let patch ~header ~line ~by =
    let rec go = function
      | h :: rest when String.equal h header ->
        let rec body acc = function
          | l :: rest when String.starts_with ~prefix:("end" ^ header ^ " ") l
            ->
            let body = h :: List.rev acc in
            body @ (("end" ^ header ^ " " ^ Sectfile.checksum_of body) :: rest)
          | l :: rest ->
            body ((if String.equal l line then by else l) :: acc) rest
          | [] -> []
        in
        body [] rest
      | l :: rest -> l :: go rest
      | [] -> []
    in
    let patched = go lines in
    Alcotest.(check bool) (line ^ " was patched") true (patched <> lines);
    write_file path (String.concat "\n" patched);
    let before = Gc.minor_words () in
    Alcotest.(check bool) (by ^ " misses") true (Cache.find_race key = None);
    Alcotest.(check bool) "without allocating it" true
      (Gc.minor_words () -. before < 100_000.)
  in
  patch ~header:"tally" ~line:"entries 2"
    ~by:(Printf.sprintf "entries %d" max_int);
  patch ~header:"meta" ~line:"sites 3" ~by:(Printf.sprintf "sites %d" max_int);
  patch ~header:"tally" ~line:"2 1 1"
    ~by:(Printf.sprintf "%d 1 1" max_int)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "fault-injection",
        q [ prop_lenient_never_raises; prop_untouched_recovered ] );
      ( "study cache",
        q [ prop_cache_entry_roundtrip; prop_cache_entry_never_trusted ]
        @ [
            Alcotest.test_case "huge declared count" `Quick
              test_cache_huge_count;
          ] );
      ( "race cache",
        q [ prop_race_roundtrip; prop_race_never_trusted ]
        @ [
            Alcotest.test_case "huge site or entry count" `Quick
              test_race_huge_count;
          ] );
      ( "roundtrip",
        q
          [
            prop_roundtrip;
            prop_save_stable;
            prop_v1_roundtrip;
            prop_lenient_on_clean;
          ] );
    ]
