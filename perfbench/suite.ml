(* The two suite workloads: all registered sections on the full
   registry, once with empty stores (suite-cold) and once with stores
   filled during set-up (suite-warm).  Each iteration is a fresh process,
   so the threaded-closure cache, registry forcing and lazies are cold in
   every run, as in a user's `fisher92 experiments`; only the on-disk
   stores differ between the two suites. *)

open Perfbench
module Study = Fisher92.Study
module Study_cache = Fisher92.Study_cache
module Tracing = Fisher92.Tracing
module Experiment = Fisher92.Experiment
module Workload = Fisher92_workloads.Workload
module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic
module Fingerprint = Fisher92_analysis.Fingerprint
module Program = Fisher92_ir.Program
module Vm = Fisher92_vm.Vm
module Measure = Fisher92_metrics.Measure

type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let section_metric id = "core.experiments." ^ id ^ "_s"

(* What `fisher92 experiments` does: every registered section over the
   full study, at the default domain count, printed to stdout. *)
let render_all tr =
  let registry = Fisher92_synth.Sweep.registry () in
  let study, timings =
    tr.span "core.study.load_s" (fun () -> Study.load_timed ())
  in
  let forced = Lazy.from_val study in
  let texts =
    List.map
      (fun (e : Experiment.t) ->
        let text =
          tr.span (section_metric e.e_id) (fun () ->
              Experiment.render_text e forced)
        in
        print_endline text;
        (e.e_id, text))
      registry
  in
  (study, timings, texts)

let pair_name (l : Study.loaded) (d : Workload.dataset) =
  l.workload.Workload.w_name ^ "/" ^ d.ds_name

(* ---- write-side layer pass (suite-cold): every registry pair through
   each layer's public function in turn, into fresh stores ---- *)

let write_pass sp study =
  let ir_insns = ref 0 and insns = ref 0 in
  let bytes = ref 0 and branches = ref 0 in
  let fails = ref [] in
  let fail l d msg = fails := (pair_name l d ^ ": " ^ msg) :: !fails in
  List.iter
    (fun (l : Study.loaded) ->
      let program = l.workload.Workload.w_name in
      let ir =
        Clock.span sp "minic.compile_s" (fun () ->
            Study.compile_variant l.workload)
      in
      ir_insns := !ir_insns + Program.static_size ir;
      let fingerprint =
        Clock.span sp "analysis.fingerprint_s" (fun () ->
            Fingerprint.program_hash ir)
      in
      let n_sites = Program.n_sites ir in
      List.iter2
        (fun (d : Workload.dataset) (studied : Measure.run) ->
          let r =
            Clock.span sp "vm.plain_s" (fun () -> Study.execute ir d ())
          in
          insns := !insns + r.Vm.total;
          let predictor = Dynamic.create Dynamic.Two_bit ~n_sites in
          let config =
            {
              Vm.default_config with
              on_branch = Some (Dynamic.hook predictor);
            }
          in
          let (_ : Vm.result) =
            Clock.span sp "vm.hooked_s" (fun () ->
                Study.execute ir d ~config ())
          in
          let w =
            Clock.span sp "trace.record_s" (fun () ->
                Tracing.record ~ir ~program d)
          in
          let text =
            Clock.span sp "trace.encode_s" (fun () -> Trace.Writer.render w)
          in
          bytes := !bytes + String.length text;
          branches := !branches + Trace.Writer.events w;
          Clock.span sp "trace.store_save_s" (fun () -> Trace.Store.save w);
          let run = Measure.of_result ~program ~dataset:d.ds_name r in
          Clock.span sp "core.study_cache.store_s" (fun () ->
              Study_cache.store ~fingerprint d run);
          if run <> studied then
            fail l d "measurement differs from the study's";
          if Vm.conditional_branches r <> Trace.Writer.events w then
            fail l d "trace events differ from VM branches")
        l.workload.w_datasets l.runs)
    (Study.items study);
  let plain_s = List.assoc "vm.plain_s" (Clock.to_list sp) in
  let counts =
    [
      ("minic.ir_insns", float_of_int !ir_insns);
      ("vm.insns", float_of_int !insns);
      ("vm.insns_per_s", float_of_int !insns /. plain_s);
      ("trace.bytes_per_branch", float_of_int !bytes /. float_of_int !branches);
    ]
  in
  (counts, fun () -> ([], List.rev !fails))

(* ---- read-side layer pass (suite-warm): the filled stores read back
   and every zoo scheme replayed cold and warm ---- *)

let scheme_label scheme =
  let name = Dynamic.scheme_name scheme in
  match String.index_opt name '/' with
  | Some i -> String.sub name 0 i
  | None -> name

let update_metric scheme mode =
  Printf.sprintf "predict.update_s.%s.%s" (scheme_label scheme) mode

let same_tallies a b =
  Dynamic.correct a = Dynamic.correct b
  && Dynamic.incorrect a = Dynamic.incorrect b
  && Dynamic.site_correct a = Dynamic.site_correct b
  && Dynamic.site_incorrect a = Dynamic.site_incorrect b

let read_pass sp study =
  let zoo = Fisher92.Experiments.zoo_schemes () in
  let events = ref 0 and decode_once = ref 0. in
  let fails = ref [] in
  let fail msg = fails := msg :: !fails in
  let replays = ref [] in
  List.iter
    (fun (l : Study.loaded) ->
      let program = l.workload.Workload.w_name in
      let n_sites = Program.n_sites l.ir in
      let fingerprint =
        Clock.span sp "analysis.fingerprint_s" (fun () ->
            Fingerprint.program_hash l.ir)
      in
      List.iter2
        (fun (d : Workload.dataset) (studied : Measure.run) ->
          match
            Clock.span sp "core.study_cache.lookup_s" (fun () ->
                Study_cache.lookup ~fingerprint ~n_sites ~program d)
          with
          | Some run when run = studied -> ()
          | Some _ -> fail (pair_name l d ^ ": cached measurement differs")
          | None -> fail (pair_name l d ^ ": study-cache miss on a full store"))
        l.workload.w_datasets l.runs;
      let d = List.hd l.workload.w_datasets in
      let dshash = Study_cache.dataset_hash d in
      (match
         Clock.span sp "trace.store_load_s" (fun () ->
             Trace.Store.load ~program ~dataset:d.ds_name ~fingerprint ~dshash
               ~n_sites)
       with
      | Some _ -> ()
      | None -> fail (pair_name l d ^ ": trace-store miss on a filled store"));
      let raw =
        Checks.read_file (Trace.Store.path ~program ~fingerprint ~dshash)
      in
      let reader, parse = Clock.timed (fun () -> Trace.Reader.of_string raw) in
      let count_events _ _ _ _ n = events := !events + n in
      let (), decode =
        Clock.timed (fun () -> Trace.Reader.iter_runs reader count_events)
      in
      Clock.add sp "trace.decode_s" (parse +. decode);
      decode_once := !decode_once +. parse +. decode;
      let warm =
        Clock.span sp "core.tracing.warm_prediction_s" (fun () ->
            Tracing.warm_prediction l)
      in
      List.iter
        (fun scheme ->
          List.iter
            (fun (mode, warm) ->
              let batched, dt =
                Clock.timed (fun () ->
                    Dynamic.simulate_runs ?warm scheme ~n_sites
                      (Trace.Reader.iter_runs reader))
              in
              (* simulate_runs decodes the stream again: that share is
                 decode time, the rest is predictor update *)
              Clock.add sp "trace.decode_s" decode;
              Clock.add sp (update_metric scheme mode) (dt -. decode);
              replays :=
                (program, reader, scheme, mode, warm, n_sites, batched)
                :: !replays)
            [ ("cold", None); ("warm", Some warm) ])
        zoo)
    (Study.items study);
  let counts =
    [ ("trace.decode_events_per_s", float_of_int !events /. !decode_once) ]
  in
  (* Untimed: batched replay must equal streaming replay per scheme, and
     the run/period shares take one more decode. *)
  let check () =
    List.iter
      (fun (program, reader, scheme, mode, warm, n_sites, batched) ->
        let streaming =
          Dynamic.simulate ?warm scheme ~n_sites (Trace.Reader.iter reader)
        in
        if not (same_tallies batched streaming) then
          fail
            (Printf.sprintf "%s: batched %s (%s) replay differs from streaming"
               program (Dynamic.scheme_name scheme) mode))
      !replays;
    List.rev !fails
  in
  let shares () =
    let run_events = ref 0 and period_events = ref 0 in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (program, reader, _, _, _, _, _) ->
        if not (Hashtbl.mem seen program) then begin
          Hashtbl.add seen program ();
          Trace.Reader.iter_runs reader (fun _ _ runs periods n ->
              let i = ref 0 in
              while !i < n do
                let r = runs.(!i) in
                if r > 1 then run_events := !run_events + r;
                if periods.(!i) <> 0 then
                  period_events := !period_events + (periods.(!i) lsr 7);
                i := !i + r
              done)
        end)
      !replays;
    let share n = float_of_int n /. float_of_int !events in
    [
      ("trace.run_share", share !run_events);
      ("trace.period_share", share !period_events);
    ]
  in
  (counts, fun () -> (shares (), check ()))

(* ---- child process ---- *)

(* [child ~result pass]: one suite iteration; traced when [pass] names
   the layer pass ("cold" = write side into [pass_dir], "warm" = read
   side) that follows the sections. *)
let child ~result ~pass =
  let t_start = Clock.now () in
  let sp = Clock.spans () in
  let tr =
    match pass with
    | None -> { span = (fun _ f -> f ()) }
    | Some _ -> { span = (fun name f -> Clock.span sp name f) }
  in
  let study, timings, texts = render_all tr in
  let t_core = Clock.now () in
  let counts, check =
    match pass with
    | None -> ([], fun () -> ([], []))
    | Some ("cold", pass_dir) ->
      Unix.putenv "FISHER92_CACHE_DIR" (Filename.concat pass_dir "cache");
      Unix.putenv "FISHER92_TRACE_DIR" (Filename.concat pass_dir "trace");
      write_pass sp study
    | Some (_, _) -> read_pass sp study
  in
  let t_end = Clock.now () in
  let late_counts, fails = check () in
  flush stdout;
  let runs = List.concat_map (fun tm -> tm.Study.tm_runs) timings in
  let hits = List.length (List.filter (fun r -> r.Study.rt_cached) runs) in
  Child.write result
    ([
       ("core_s", Child.f (t_core -. t_start));
       ("wall_s", Child.f (t_end -. t_start));
       ("peak_rss_kb", string_of_int (Child.peak_rss_kb ()));
       ("hits", string_of_int hits);
       ("misses", string_of_int (List.length runs - hits));
     ]
    @ List.map (fun (id, d) -> ("digest." ^ id, d)) (Checks.digests texts)
    @ List.map (fun (n, t) -> ("span." ^ n, Child.f t)) (Clock.to_list sp)
    @ List.map (fun (n, v) -> ("count." ^ n, Child.f v)) (counts @ late_counts)
    @ List.map (fun m -> ("fail", m)) fails)

(* ---- parent side ---- *)

(* suite-warm fills fresh stores with a cold run this many times and
   keeps the last; the median of their CPU time is its setup_s. *)
let setup_runs = 2

let iteration ~run_dir ~stores ?pass tag =
  let result = Filename.concat run_dir (tag ^ ".result") in
  let args =
    "suite" :: result
    :: (match pass with None -> [] | Some (p, dir) -> [ p; dir ])
  in
  Child.spawn
    ~env:
      [
        ("FISHER92_CACHE_DIR", Filename.concat stores "cache");
        ("FISHER92_TRACE_DIR", Filename.concat stores "trace");
      ]
    ~stdout:(Filename.concat run_dir (tag ^ ".out"))
    ~result args

(* [golden_cpu] is the CPU time of the invocation's golden check, the
   set-up suite-cold reports: its only other preparation is a fresh
   empty store directory per run, a few milliseconds of file-system
   work whose time varies by half between runs. *)
let run ~warm ~seconds ~trace ~run_dir ~domains ~golden_cpu
    (tally : Child.tally) =
  let stores = Filename.concat run_dir "stores" in
  let study_runs =
    List.fold_left
      (fun n (w : Workload.t) -> n + List.length w.w_datasets)
      0
      (Fisher92_workloads.Registry.all ())
  in
  let reference = ref None in
  (* [cold]: whether the run should have found its stores empty *)
  let check tag (r : Child.run) =
    let problem fmt =
      Printf.ksprintf (fun m -> Child.problem tally (tag ^ ": " ^ m)) fmt
    in
    let d = Child.with_prefix r.result "digest." in
    let reference =
      match !reference with
      | Some x -> x
      | None ->
        reference := Some d;
        d
    in
    let bad = Checks.digest_mismatches ~reference d in
    tally.attempted <- tally.attempted + List.length d;
    tally.failed <- tally.failed + List.length bad;
    List.iter (problem "section %s differs from the first run's") bad;
    List.iter (fun (k, m) -> if k = "fail" then problem "%s" m) r.result
  in
  (* One more check per run: it used its stores as its suite says.  A
     cold run misses every study run and leaves traces behind; a warm
     one hits every study run and writes nothing, since a study-cache or
     trace-store miss would save a new file. *)
  let store_check ~cold tag (r : Child.run) extra =
    let hits = Child.geti r.result "hits" in
    let misses = Child.geti r.result "misses" in
    let bad =
      match Checks.cache_mismatch ~cold ~expected:study_runs ~hits ~misses with
      | Some m -> Some m
      | None -> extra
    in
    tally.attempted <- tally.attempted + 1;
    Option.iter
      (fun m ->
        tally.failed <- tally.failed + 1;
        Child.problem tally (tag ^ ": " ^ m))
      bad
  in
  let cold_run ?(dir = "cold") ?pass tag =
    let stores = Child.fresh_dir (Filename.concat run_dir dir) in
    let r = iteration ~run_dir ~stores ?pass tag in
    check tag r;
    let traces = Checks.store_files ~suffix:".trace" (Checks.snapshot stores) in
    store_check ~cold:true tag r
      (if traces = 0 then Some "the run stored no trace" else None);
    r
  in
  let warm_run ?pass tag =
    let before = Checks.snapshot stores in
    let r = iteration ~run_dir ~stores ?pass tag in
    check tag r;
    store_check ~cold:false tag r
      (if Checks.snapshot stores <> before then
         Some "a warm run wrote to its stores"
       else None);
    r
  in
  let measured tag = if warm then warm_run tag else cold_run tag in
  let setups =
    if warm then
      List.init setup_runs (fun i ->
          (cold_run ~dir:"stores" (Printf.sprintf "setup%d" i)).cpu)
    else [ golden_cpu ]
  in
  if not trace then begin
    (* suite-cold: an unmeasured run, the digest reference, which also
       brings the binary and the registry sources into the page cache *)
    if not warm then ignore (measured "warmup");
    let runs =
      Child.for_seconds seconds (fun i -> measured (Printf.sprintf "run%d" i))
    in
    let metrics, note = Child.end_to_end ~setups runs in
    (metrics, [ note ])
  end
  else begin
    let u = measured "reference" in
    let pass_dir = Child.fresh_dir (Filename.concat run_dir "pass") in
    let pass = ((if warm then "warm" else "cold"), pass_dir) in
    let t = if warm then warm_run ~pass "traced" else cold_run ~pass "traced" in
    let hits = Child.getf t.result "hits" in
    let misses = Child.getf t.result "misses" in
    ( Child.traced_metrics ~domains ~untraced:u t
      @ Child.floats t.result "count."
      @ [
          ("core.study_cache.hits", hits);
          ("core.study_cache.misses", misses);
          ("core.study_cache.hit_ratio", hits /. (hits +. misses));
        ],
      [] )
  end
