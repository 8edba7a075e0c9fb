(* The predictor zoo: qcheck surface properties every scheme must hold
   (determinism, clean reset, per-site tallies summing to the globals,
   warm seeding that never crashes), the latent-bug regressions on the
   dynamic-prediction path (Static/warm length validation, hook site
   bounds, batched chunk shape), hand-computed steady-state mispredicts
   pinning the update rules, hand-evaluated cold/warm semantics of the
   new schemes, and the tournament acceptance gate: profile warming
   never loses on geomean mispredicts, store hit and miss replay
   bit-identically; the experiments' shared replay, checked against a
   live VM hook and never served to the wrong study; and the race cache
   behind it: a warm render is byte-identical, writes nothing and
   obtains no trace, and a missing or damaged race entry is replayed,
   rendered identically and saved again. *)

module Dynamic = Fisher92_predict.Dynamic
module Predictor = Fisher92_predict.Predictor
module Prediction = Fisher92_predict.Prediction
module Remap = Fisher92_predict.Remap
module Db = Fisher92_profile.Db
module Tracing = Fisher92.Tracing
module Registry = Fisher92_workloads.Registry
module Workload = Fisher92_workloads.Workload
module Gen = QCheck2.Gen

let fresh_dir prefix =
  let d = Filename.temp_file prefix ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

(* Isolate the trace store, as test_trace does, and the study cache,
   which holds the race entries. *)
let trace_dir = fresh_dir "f92zoo"
let cache_dir = fresh_dir "f92zoocache"

let () =
  Unix.putenv "FISHER92_TRACE_DIR" trace_dir;
  Unix.putenv "FISHER92_NO_TRACE" "";
  Unix.putenv "FISHER92_CACHE_DIR" cache_dir;
  Unix.putenv "FISHER92_NO_CACHE" ""

let replay_of evs f = List.iter (fun (s, t) -> f s t) evs
let zoo () = Predictor.zoo ()

let tallies sim =
  ( Dynamic.correct sim,
    Dynamic.incorrect sim,
    Dynamic.site_correct sim,
    Dynamic.site_incorrect sim )

(* ---------- generators ---------- *)

let stream_gen =
  Gen.(
    int_range 1 20 >>= fun n_sites ->
    list_size (int_range 0 400)
      (pair (int_range 0 (n_sites - 1)) bool)
    >>= fun evs ->
    array_size (return n_sites) bool >>= fun warm -> return (n_sites, evs, warm))

let pp_stream (n_sites, evs, _) =
  Printf.sprintf "n_sites=%d events=%d" n_sites (List.length evs)

(* ---------- zoo-wide qcheck properties ---------- *)

let for_all_schemes f =
  List.for_all (fun z -> f z.Predictor.d_name z.Predictor.d_scheme) (zoo ())

let prop_deterministic =
  QCheck2.Test.make ~count:100 ~name:"simulate is deterministic"
    ~print:pp_stream stream_gen (fun (n_sites, evs, _) ->
      for_all_schemes (fun _ scheme ->
          let a = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          let b = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          tallies a = tallies b))

let prop_tallies_sum =
  QCheck2.Test.make ~count:100
    ~name:"per-site tallies sum to the global counters" ~print:pp_stream
    stream_gen (fun (n_sites, evs, _) ->
      for_all_schemes (fun _ scheme ->
          let sim = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          let sum = Array.fold_left ( + ) 0 in
          sum (Dynamic.site_correct sim) = Dynamic.correct sim
          && sum (Dynamic.site_incorrect sim) = Dynamic.incorrect sim
          && Dynamic.correct sim + Dynamic.incorrect sim = List.length evs))

let prop_reset_clean =
  QCheck2.Test.make ~count:100 ~name:"reset_counts yields a clean slate"
    ~print:pp_stream stream_gen (fun (n_sites, evs, _) ->
      for_all_schemes (fun _ scheme ->
          let sim = Dynamic.simulate scheme ~n_sites (replay_of evs) in
          Dynamic.reset_counts sim;
          Dynamic.correct sim = 0
          && Dynamic.incorrect sim = 0
          && Array.for_all (( = ) 0) (Dynamic.site_correct sim)
          && Array.for_all (( = ) 0) (Dynamic.site_incorrect sim)))

let prop_warm_total =
  QCheck2.Test.make ~count:100
    ~name:"warm seeding never crashes and still counts every branch"
    ~print:pp_stream stream_gen (fun (n_sites, evs, warm) ->
      for_all_schemes (fun _ scheme ->
          let sim = Dynamic.simulate ~warm scheme ~n_sites (replay_of evs) in
          Dynamic.correct sim + Dynamic.incorrect sim = List.length evs))

(* ---------- batched replay: simulate_runs == simulate ---------- *)

module Trace = Fisher92_trace.Trace

let trace_text ~n_sites evs =
  let w =
    Trace.Writer.create ~program:"q" ~dataset:"d" ~fingerprint:"f" ~dshash:"h"
      ~n_sites
  in
  List.iter (fun (s, t) -> Trace.Writer.feed w s t) evs;
  Trace.Writer.render w

let batched_equals_streaming ?warm ~n_sites ~chunk evs =
  let text = trace_text ~n_sites evs in
  for_all_schemes (fun _ scheme ->
      let a = Dynamic.simulate ?warm scheme ~n_sites (replay_of evs) in
      let b =
        Dynamic.simulate_runs ?warm scheme ~n_sites
          (Trace.Reader.iter_runs ~chunk (Trace.Reader.of_string text))
      in
      tallies a = tallies b)

(* The batched path's run and period fast-forwards must be invisible:
   cold and warm, any chunk size, every scheme, bit-identical tallies
   (global and per-site) to the streaming hook. *)
let prop_batched_equals_streaming =
  QCheck2.Test.make ~count:100
    ~name:"simulate_runs == simulate (every scheme, cold and warm)"
    ~print:(fun ((s : int * (int * bool) list * bool array), chunk) ->
      Printf.sprintf "%s chunk=%d" (pp_stream s) chunk)
    Gen.(pair stream_gen (int_range 1 64))
    (fun ((n_sites, evs, warm), chunk) ->
      batched_equals_streaming ~n_sites ~chunk evs
      && batched_equals_streaming ~warm ~n_sites ~chunk evs)

(* Random streams rarely form runs or periodic stretches, so drive the
   fast-forward machinery deliberately: repeated loop bodies (periodic
   stretches for every history scheme) and long constant runs
   (saturating-counter closed forms). *)
let loopy_gen =
  let open Gen in
  let* n_sites = int_range 1 8 in
  let* body =
    list_size (int_range 1 8) (pair (int_bound (n_sites - 1)) bool)
  in
  let* reps = int_range 3 60 in
  let* site = int_bound (n_sites - 1) in
  let* dir = bool in
  let* runlen = int_range 1 40 in
  let+ tail =
    list_size (int_bound 20) (pair (int_bound (n_sites - 1)) bool)
  in
  ( n_sites,
    List.concat (List.init reps (fun _ -> body))
    @ List.init runlen (fun _ -> (site, dir))
    @ tail )

let prop_batched_loopy =
  QCheck2.Test.make ~count:200
    ~name:"simulate_runs == simulate on loop-shaped streams"
    ~print:(fun ((n, evs), chunk) ->
      Printf.sprintf "n_sites=%d events=%d chunk=%d" n (List.length evs) chunk)
    Gen.(pair loopy_gen (int_range 1 64))
    (fun ((n_sites, evs), chunk) ->
      batched_equals_streaming ~n_sites ~chunk evs)

(* ---------- latent-bug regressions ---------- *)

let check_invalid name needle f =
  match f () with
  | exception Invalid_argument msg ->
    let has sub s =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s message mentions %S: %s" name needle msg)
      true (has needle msg)
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* Regression: [Static p] with the wrong length used to die mid-replay
   with a bare Index_out_of_bounds once the trace touched a high site;
   now create rejects the mismatch up front, descriptively. *)
let test_static_length_validated () =
  check_invalid "short static" "static prediction" (fun () ->
      Dynamic.create (Dynamic.Static [| true; false |]) ~n_sites:5);
  check_invalid "long static" "static prediction" (fun () ->
      Dynamic.simulate
        (Dynamic.Static (Array.make 9 false))
        ~n_sites:3
        (replay_of [ (0, true) ]));
  (* the exact-length case still works *)
  let sim =
    Dynamic.simulate
      (Dynamic.Static [| true; true |])
      ~n_sites:2
      (replay_of [ (0, true); (1, false) ])
  in
  Alcotest.(check int) "static still predicts" 1 (Dynamic.correct sim)

let test_hook_site_bounds () =
  let sim = Dynamic.create Dynamic.Two_bit ~n_sites:2 in
  check_invalid "site too high" "out of range" (fun () ->
      Dynamic.hook sim 2 true);
  check_invalid "negative site" "out of range" (fun () ->
      Dynamic.hook sim (-1) true);
  List.iter
    (fun z ->
      let sim = Dynamic.create z.Predictor.d_scheme ~n_sites:3 in
      check_invalid (z.Predictor.d_name ^ " bounds") "out of range" (fun () ->
          Dynamic.hook sim 7 false))
    (zoo ())

let test_warm_length_validated () =
  check_invalid "warm too short" "warm prediction" (fun () ->
      Dynamic.create ~warm:[| true |] Dynamic.Two_bit ~n_sites:3)

(* Regression: [hook_batch] used to trust its chunk descriptors and read
   with unsafe accessors, so a run or periodic stretch reaching past [n]
   (or an [n] past the arrays) was silently replayed from whatever lay
   beyond.  Here the arrays are longer than [n] and hold valid events,
   so only the descriptors are wrong, and every scheme must refuse. *)
let test_hook_batch_shape () =
  List.iter
    (fun z ->
      let name = z.Predictor.d_name in
      let feed sites tk rl pr n =
        Dynamic.hook_batch
          (Dynamic.create z.Predictor.d_scheme ~n_sites:1)
          sites tk rl pr n
      in
      let sites = Array.make 64 0 and tk = Bytes.make 64 '\001' in
      let zeros () = Array.make 64 0 in
      let long_run = zeros () in
      long_run.(0) <- 20;
      check_invalid (name ^ " run past n") "hook_batch" (fun () ->
          feed sites tk long_run (zeros ()) 8);
      let long_period = zeros () in
      long_period.(0) <- (40 lsl 7) lor 2;
      check_invalid (name ^ " period past n") "hook_batch" (fun () ->
          feed sites tk (Array.make 64 1) long_period 8);
      check_invalid (name ^ " n past the arrays") "hook_batch" (fun () ->
          feed sites (Bytes.make 4 '\001') (Array.make 64 1) (zeros ()) 8);
      (* a zero period would otherwise never advance *)
      let zero_period = zeros () in
      zero_period.(0) <- 8 lsl 7;
      check_invalid (name ^ " period 0") "hook_batch" (fun () ->
          feed sites tk (Array.make 64 1) zero_period 8))
    (zoo ())

(* ---------- hand-computed oracles ---------- *)

(* Streaming and batched replay share one kernel per scheme, so their
   equivalence checks only the driver; these pin the update rules
   themselves.  One site repeats a pattern: 50 training periods,
   [reset_counts], then 100 measured periods.  The expected steady-state
   mispredicts per period are worked by hand:
   - TTTN: 1-bit misses the first T and the N; 2-bit only the N; a
     2-bit history sees TT before both the third T and the N, so
     2-level/2 misses one; 10- and 12-bit histories span the period and
     miss nothing.
   - TN: 1-bit always misses, 2-bit misses every T (it oscillates
     between 0 and 1), and any history of two or more bits tells the
     phases apart. *)
let oracle_schemes =
  [
    ("1-bit", Dynamic.Last_direction);
    ("2-bit", Dynamic.Two_bit);
    ("2-level/2", Dynamic.Two_level { history_bits = 2 });
    ("2-level/10", Dynamic.Two_level { history_bits = 10 });
    ("gshare/12", Dynamic.Gshare { history_bits = 12 });
  ]

let on_site0 pattern periods =
  List.concat
    (List.init periods (fun _ -> List.map (fun t -> (0, t)) pattern))

let steady_mispredicts pattern expected =
  let train = on_site0 pattern 50 and measured = on_site0 pattern 100 in
  let reader evs = Trace.Reader.of_string (trace_text ~n_sites:1 evs) in
  List.iter2
    (fun (name, scheme) want ->
      let s = Dynamic.simulate scheme ~n_sites:1 (replay_of train) in
      Dynamic.reset_counts s;
      List.iter (fun (site, t) -> Dynamic.hook s site t) measured;
      let b =
        Dynamic.simulate_runs scheme ~n_sites:1
          (Trace.Reader.iter_runs (reader train))
      in
      Dynamic.reset_counts b;
      Trace.Reader.iter_runs (reader measured) (Dynamic.hook_batch b);
      Alcotest.(check int) (name ^ " streaming") (100 * want)
        (Dynamic.incorrect s);
      Alcotest.(check int) (name ^ " batched") (100 * want)
        (Dynamic.incorrect b))
    oracle_schemes expected;
  (* what the batched driver was handed: the longest run and whether
     the decoder certified a periodic stretch *)
  let longest = ref 0 and periodic = ref false in
  Trace.Reader.iter_runs (reader measured) (fun _ _ rl pr n ->
      let i = ref 0 in
      while !i < n do
        longest := max !longest rl.(!i);
        if pr.(!i) > 0 then periodic := true;
        i := !i + rl.(!i)
      done);
  (!longest, !periodic)

let test_oracle_tttn () =
  let longest, _ =
    steady_mispredicts [ true; true; true; false ] [ 2; 1; 1; 0; 0 ]
  in
  (* one site's TTTN has no constant gap between repeats of a key, so
     it reaches the driver as runs of three, not as a periodic
     stretch *)
  Alcotest.(check int) "TTT arrives as a run" 3 longest

let test_oracle_tn () =
  let _, periodic = steady_mispredicts [ true; false ] [ 2; 1; 0; 0; 0 ] in
  Alcotest.(check bool) "TN arrives as a periodic stretch" true periodic

(* ---------- new-scheme semantics, hand-evaluated ---------- *)

(* Smith shares one counter table across sites: with a 2-entry table,
   sites 0 and 2 alias onto entry 0, so training on site 0 predicts
   site 2's first visit; per-site 2-bit state knows nothing yet. *)
let test_smith_aliases () =
  let evs = [ (0, true); (0, true); (2, true) ] in
  let smith =
    Dynamic.simulate (Dynamic.Smith { table_bits = 1 }) ~n_sites:3
      (replay_of evs)
  in
  let twobit = Dynamic.simulate Dynamic.Two_bit ~n_sites:3 (replay_of evs) in
  Alcotest.(check int) "smith rides the shared counter" 1
    (Dynamic.correct smith);
  Alcotest.(check int) "2-bit still cold on site 2" 0 (Dynamic.correct twobit)

(* When the table covers every site without aliasing, Smith degenerates
   to exactly the per-site 2-bit predictor. *)
let prop_smith_equals_twobit =
  QCheck2.Test.make ~count:100
    ~name:"unaliased smith == per-site 2-bit" ~print:pp_stream stream_gen
    (fun (n_sites, evs, _) ->
      let smith =
        Dynamic.simulate (Dynamic.Smith { table_bits = 5 }) ~n_sites
          (replay_of evs)
      in
      let twobit = Dynamic.simulate Dynamic.Two_bit ~n_sites (replay_of evs) in
      tallies smith = tallies twobit)

let test_bimode_cold () =
  (* hand-evaluated like test_trace's check_cold: banks and choice all
     cold predict not-taken; the third event flips to the taken bank
     whose counter is still weak, so only the not-taken event lands *)
  let sim =
    Dynamic.simulate
      (Dynamic.Bimode { history_bits = 1; choice_bits = 1 })
      ~n_sites:1
      (replay_of [ (0, true); (0, true); (0, false); (0, true) ])
  in
  Alcotest.(check int) "bimode cold correct" 1 (Dynamic.correct sim);
  Alcotest.(check int) "bimode cold incorrect" 3 (Dynamic.incorrect sim)

let test_tage_cold_vs_warm () =
  let all_taken = List.init 4 (fun _ -> (0, true)) in
  let scheme =
    Dynamic.Tage { table_bits = 7; tag_bits = 8; histories = [ 4; 8; 16 ] }
  in
  let cold = Dynamic.simulate scheme ~n_sites:1 (replay_of all_taken) in
  let warm =
    Dynamic.simulate ~warm:[| true |] scheme ~n_sites:1 (replay_of all_taken)
  in
  (* cold base needs two outcomes to cross the taken threshold *)
  Alcotest.(check bool)
    (Printf.sprintf "cold tage misses the head (%d wrong)"
       (Dynamic.incorrect cold))
    true
    (Dynamic.incorrect cold >= 2);
  Alcotest.(check int) "warm tage is right from branch one" 4
    (Dynamic.correct warm)

let test_warm_twobit_beats_cold () =
  let evs = [ (0, true); (0, true); (0, false); (0, true) ] in
  let cold = Dynamic.simulate Dynamic.Two_bit ~n_sites:1 (replay_of evs) in
  let warm =
    Dynamic.simulate ~warm:[| true |] Dynamic.Two_bit ~n_sites:1
      (replay_of evs)
  in
  Alcotest.(check int) "cold 2-bit all wrong" 0 (Dynamic.correct cold);
  Alcotest.(check int) "warm 2-bit rides the bias" 3 (Dynamic.correct warm)

(* ---------- warming through the remap chain ---------- *)

let load_study names =
  Fisher92.Study.load ~workloads:(List.map Registry.find names) ()

let loaded_workloads names = Fisher92.Study.items (load_study names)

(* A database whose shape does not match the build (a "previous
   version" profile missing sites) must warm through the degradation
   chain — never crash the simulator with an out-of-bounds seed. *)
let test_warm_survives_stale_db () =
  let l = List.hd (loaded_workloads [ "compress" ]) in
  let ir = l.Fisher92.Study.ir in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  let stale =
    Db.create ~program:l.Fisher92.Study.workload.Workload.w_name
      ~n_sites:(n_sites + 7)
  in
  let plan = Remap.plan ir stale in
  Alcotest.(check int) "chain fills every site of the build" n_sites
    (Array.length plan.Remap.r_prediction);
  let d = List.hd l.Fisher92.Study.workload.Workload.w_datasets in
  let ob =
    Tracing.obtain ~ir ~program:l.Fisher92.Study.workload.Workload.w_name d
  in
  List.iter
    (fun z ->
      let sim =
        Dynamic.simulate ~warm:plan.Remap.r_prediction z.Predictor.d_scheme
          ~n_sites
          (Fisher92_trace.Trace.Reader.iter ob.Tracing.reader)
      in
      Alcotest.(check bool)
        (z.Predictor.d_name ^ " counted every branch")
        true
        (Dynamic.correct sim + Dynamic.incorrect sim > 0))
    (zoo ())

(* ---------- tournament acceptance ---------- *)

(* Geomean over rows of (warm+1)/(cold+1); < 1 means warming won. *)
let ratio pairs =
  Fisher92_util.Stats.geomean
    (List.map
       (fun (c, w) -> float_of_int (w + 1) /. float_of_int (c + 1))
       pairs)

let tournament_rows = lazy (Fisher92.Experiments.tournament
  (Fisher92.Study.load
     ~workloads:(List.map Registry.find [ "doduc"; "compress"; "spiff" ])
     ()))

(* The PR's headline claim: on every scheme, profile warming beats the
   cold start on geomean mispredicts over the raced workloads. *)
let test_warm_beats_cold_geomean () =
  let rows = Lazy.force tournament_rows in
  let schemes =
    List.sort_uniq compare
      (List.map (fun r -> r.Fisher92.Experiments.tn_scheme) rows)
  in
  Alcotest.(check bool) "zoo raced at least 5 schemes" true
    (List.length schemes >= 5);
  List.iter
    (fun name ->
      let pairs =
        List.filter_map
          (fun (r : Fisher92.Experiments.tournament_row) ->
            if r.tn_scheme = name then Some (r.tn_cold_mr, r.tn_warm_mr)
            else None)
          rows
      in
      let g = ratio pairs in
      Alcotest.(check bool)
        (Printf.sprintf "%s warm/cold mispredict geomean %.4f < 1" name g)
        true (g < 1.0))
    schemes

(* ... and on the H2P class (the few unbiased, history-resistant sites
   carrying an outsized mispredict share) warming never loses overall. *)
let test_h2p_warming_closes_gap () =
  let rows =
    Fisher92.Experiments.h2p
      (Fisher92.Study.load
         ~workloads:(List.map Registry.find [ "doduc"; "compress"; "spiff" ])
         ())
  in
  let all_pairs =
    List.concat_map
      (fun (r : Fisher92.Experiments.h2p_row) ->
        List.map (fun (_, c, w) -> (c, w)) r.hp_schemes)
      rows
  in
  Alcotest.(check bool) "some H2P sites exist" true
    (List.exists (fun (r : Fisher92.Experiments.h2p_row) -> r.hp_sites > 0) rows);
  let g = ratio all_pairs in
  Alcotest.(check bool)
    (Printf.sprintf "H2P warm/cold mispredict geomean %.4f < 1" g)
    true (g < 1.0)

(* Store hit and store miss must replay bit-identically: race once with
   an empty store (capture), once against the populated store. *)
let test_store_hit_miss_identical () =
  Fisher92_trace.Trace.Store.clear ();
  let study =
    Fisher92.Study.load ~workloads:[ Registry.find "compress" ] ()
  in
  let schemes = Fisher92.Experiments.zoo_schemes () in
  let snapshot results =
    List.map
      (fun ((_ : Fisher92.Study.loaded), (ob : Tracing.obtained), races) ->
        ( ob.Tracing.from_store,
          List.map
            (fun (rc : Tracing.raced) -> (rc.rc_cold, rc.rc_warm))
            races ))
      results
  in
  let miss = snapshot (Tracing.tournament_study ~schemes study) in
  let hit = snapshot (Tracing.tournament_study ~schemes study) in
  Alcotest.(check bool) "first pass captured" true
    (List.for_all (fun (from_store, _) -> not from_store) miss);
  Alcotest.(check bool) "second pass hit the store" true
    (List.for_all (fun (from_store, _) -> from_store) hit);
  Alcotest.(check bool) "bit-identical tallies" true
    (List.map snd miss = List.map snd hit)

(* ---------- the shared replay ---------- *)

let with_env name value f =
  let old = Sys.getenv_opt name in
  Unix.putenv name value;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

(* Run [f] with the study cache, race entries included, switched off. *)
let uncached f = with_env "FISHER92_NO_CACHE" "1" f

(* [dynamic] reads the shared replay instead of running the VM, so a
   streaming hook on a live VM run stays the independent oracle that the
   stored trace replays the branch stream the VM produces.  Every scheme
   in the replay is checked, so each zoo scheme's batched kernel is
   differenced against its streaming [hook].  The replay runs with the
   cache off, so a warm race entry cannot stand in for the kernel. *)
let test_replay_matches_vm_hook () =
  List.iter
    (fun ((l : Fisher92.Study.loaded), races) ->
      let dataset = List.hd l.workload.Workload.w_datasets in
      let n_sites = Fisher92_ir.Program.n_sites l.ir in
      List.iter
        (fun scheme ->
          let live = Dynamic.create scheme ~n_sites in
          let config =
            {
              Fisher92_vm.Vm.default_config with
              on_branch = Some (Dynamic.hook live);
            }
          in
          let (_ : Fisher92_vm.Vm.result) =
            Fisher92.Study.execute l.ir dataset ~config ()
          in
          let rc =
            List.find (fun (rc : Tracing.raced) -> rc.rc_scheme = scheme) races
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s: VM hook = shared replay"
               l.workload.Workload.w_name (Dynamic.scheme_name scheme))
            true
            (Dynamic.tally live = rc.Tracing.rc_cold))
        (Dynamic.Last_direction :: Fisher92.Experiments.zoo_schemes ()))
    (uncached (fun () ->
         Fisher92.Experiments.replay (load_study [ "compress"; "lfk" ])))

(* The single-slot memo must never serve one study's replay to another:
   study A, then B, then a fresh A' equal to A. *)
let test_replay_memo_per_study () =
  let module E = Fisher92.Experiments in
  let sections study =
    let dn = E.dynsim study in
    let hp = E.h2p study in
    ( List.map (fun (r : E.dynsim_row) -> r.dn_program) dn,
      List.map (fun (r : E.h2p_row) -> r.hp_program) hp,
      E.render_dynsim dn ^ E.render_h2p hp )
  in
  let a = load_study [ "compress" ] in
  let b = load_study [ "spiff"; "lfk" ] in
  let a' = load_study [ "compress" ] in
  let dn_a, hp_a, out_a = sections a in
  let dn_b, hp_b, _ = sections b in
  let _, _, out_a' = sections a' in
  let names = Alcotest.(list string) in
  Alcotest.check names "dynsim rows of A" [ "compress" ] dn_a;
  Alcotest.check names "h2p rows of A" [ "compress" ] hp_a;
  Alcotest.check names "dynsim rows of B" [ "spiff"; "lfk" ] dn_b;
  Alcotest.check names "h2p rows of B" [ "spiff"; "lfk" ] hp_b;
  Alcotest.(check string) "A and A' render alike" out_a out_a'

(* ---------- the race cache ---------- *)

let race_sections =
  [ "dynamic"; "dynsim"; "predictability"; "tournament"; "h2p"; "synthpool" ]

(* Every race-reading section, from a fresh study each time so the
   replay memo cannot serve a previous render. *)
let render_races () =
  let study = lazy (load_study [ "compress"; "lfk"; "spiff" ]) in
  let registry = Fisher92_synth.Sweep.registry () in
  String.concat ""
    (List.map
       (fun id ->
         let e =
           List.find (fun e -> e.Fisher92.Experiment.e_id = id) registry
         in
         Fisher92.Experiment.render_text e study)
       race_sections)

let listing dir =
  List.map
    (fun f ->
      let st = Unix.stat (Filename.concat dir f) in
      (f, st.Unix.st_size, st.Unix.st_mtime, st.Unix.st_ino))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let empty_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir)

let race_files () =
  List.filter
    (fun f -> Filename.check_suffix f ".race")
    (Array.to_list (Sys.readdir cache_dir))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

(* Both stores empty, then the renders: cold, which fills them. *)
let cold_render () =
  empty_dir cache_dir;
  empty_dir trace_dir;
  render_races ()

let test_race_warm_untouched () =
  let cold = cold_render () in
  Alcotest.(check bool) "the cold render saved race entries" true
    (race_files () <> []);
  let before = (listing cache_dir, listing trace_dir) in
  Alcotest.(check string) "warm output byte-identical" cold (render_races ());
  Alcotest.(check bool) "warm render left every entry untouched" true
    (before = (listing cache_dir, listing trace_dir));
  Alcotest.(check string) "cache disabled renders the same" cold
    (uncached render_races)

(* A warm cache needs no trace at all: with the trace store pointed at
   an empty directory, nothing is captured into it. *)
let test_race_warm_no_replay () =
  let cold = cold_render () in
  let empty = fresh_dir "f92zootraces" in
  let warm =
    with_env "FISHER92_TRACE_DIR" empty (fun () -> render_races ())
  in
  Alcotest.(check string) "rendered identically" cold warm;
  Alcotest.(check (list string)) "no trace obtained" []
    (Array.to_list (Sys.readdir empty));
  Unix.rmdir empty

let test_race_miss_trace_hit () =
  let cold = cold_render () in
  let races = race_files () in
  List.iter (fun f -> Sys.remove (Filename.concat cache_dir f)) races;
  let traces = listing trace_dir in
  Alcotest.(check string) "replayed from the store identically" cold
    (render_races ());
  Alcotest.(check bool) "every trace came from the store" true
    (traces = listing trace_dir);
  Alcotest.(check (list string)) "and every race was saved again" races
    (race_files ())

let index_of text sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length text then None
    else if String.sub text i n = sub then Some i
    else go (i + 1)
  in
  go 0

let test_race_flipped_entry () =
  let cold = cold_render () in
  let path = Filename.concat cache_dir (List.hd (race_files ())) in
  let original = read_file path in
  (* the first byte of the tally section's first body line *)
  let header = "\ntally\n" in
  let at = Option.get (index_of original header) + String.length header in
  let b = Bytes.of_string original in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 1));
  write_file path (Bytes.to_string b);
  let ino = (Unix.stat path).Unix.st_ino in
  Alcotest.(check string) "recomputed output identical" cold (render_races ());
  Alcotest.(check string) "entry rewritten" original (read_file path);
  Alcotest.(check bool) "by a fresh write" true
    ((Unix.stat path).Unix.st_ino <> ino)

(* ---------- run ---------- *)

let () =
  Alcotest.run "zoo"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_tallies_sum;
          QCheck_alcotest.to_alcotest prop_reset_clean;
          QCheck_alcotest.to_alcotest prop_warm_total;
          QCheck_alcotest.to_alcotest prop_smith_equals_twobit;
        ] );
      ( "batched",
        [
          QCheck_alcotest.to_alcotest prop_batched_equals_streaming;
          QCheck_alcotest.to_alcotest prop_batched_loopy;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "static length validated" `Quick
            test_static_length_validated;
          Alcotest.test_case "hook site bounds" `Quick test_hook_site_bounds;
          Alcotest.test_case "warm length validated" `Quick
            test_warm_length_validated;
          Alcotest.test_case "hook_batch chunk shape checked" `Quick
            test_hook_batch_shape;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "TTTN steady-state mispredicts" `Quick
            test_oracle_tttn;
          Alcotest.test_case "TN steady-state mispredicts" `Quick
            test_oracle_tn;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "smith aliases" `Quick test_smith_aliases;
          Alcotest.test_case "bimode cold start" `Quick test_bimode_cold;
          Alcotest.test_case "tage cold vs warm" `Quick test_tage_cold_vs_warm;
          Alcotest.test_case "warm 2-bit beats cold" `Quick
            test_warm_twobit_beats_cold;
        ] );
      ( "warming",
        [
          Alcotest.test_case "stale db warms safely" `Quick
            test_warm_survives_stale_db;
        ] );
      ( "tournament",
        [
          Alcotest.test_case "warm beats cold (geomean)" `Slow
            test_warm_beats_cold_geomean;
          Alcotest.test_case "h2p gap closes" `Slow test_h2p_warming_closes_gap;
          Alcotest.test_case "store hit/miss identical" `Quick
            test_store_hit_miss_identical;
        ] );
      ( "replay",
        [
          Alcotest.test_case "dynamic: VM hook = shared replay" `Quick
            test_replay_matches_vm_hook;
          Alcotest.test_case "memo never serves a stale study" `Quick
            test_replay_memo_per_study;
        ] );
      ( "race cache",
        [
          Alcotest.test_case "warm render identical and untouched" `Slow
            test_race_warm_untouched;
          Alcotest.test_case "warm render obtains no trace" `Slow
            test_race_warm_no_replay;
          Alcotest.test_case "race miss, trace hit identical" `Slow
            test_race_miss_trace_hit;
          Alcotest.test_case "flipped race entry recomputed" `Slow
            test_race_flipped_entry;
        ] );
    ]
