(* The repository benchmark.  Run from the root of a checkout:

     bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1

   W is suite-cold, suite-warm or ingest-soak (see README.md).  With
   --trace 0 it measures for S seconds and reports the end-to-end
   metrics; with --trace 1 it makes one untraced and one traced
   iteration and reports the per-layer metrics.  The last line of
   stdout is one JSON object; the exit code is 1 when an output check
   failed. *)

open Perfbench

let end_to_end = [ ("cpu_s", "s"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

let per_layer () =
  let zoo = Fisher92.Experiments.zoo_schemes () in
  let s names = List.map (fun n -> (n, "s")) names in
  let count names = List.map (fun n -> (n, "count")) names in
  let per_op name = [ (name ^ "_s", "s"); (name ^ "_us", "us") ] in
  List.concat
    [
      s [ "core.study.load_s" ];
      count [ "core.study_cache.hits"; "core.study_cache.misses" ];
      [ ("core.study_cache.hit_ratio", "ratio") ];
      List.map
        (fun e -> (Suite.section_metric e.Fisher92.Experiment.e_id, "s"))
        (Fisher92_synth.Sweep.registry ());
      s [ "minic.compile_s" ];
      count [ "minic.ir_insns" ];
      s [ "vm.plain_s" ];
      count [ "vm.insns" ];
      [ ("vm.insns_per_s", "1/s") ];
      s [ "vm.hooked_s"; "trace.record_s"; "trace.encode_s" ];
      [ ("trace.bytes_per_branch", "B") ];
      s
        [
          "trace.store_save_s";
          "core.study_cache.store_s";
          "analysis.fingerprint_s";
          "core.study_cache.lookup_s";
          "trace.store_load_s";
          "trace.decode_s";
        ];
      [
        ("trace.decode_events_per_s", "1/s");
        ("trace.run_share", "ratio");
        ("trace.period_share", "ratio");
      ];
      List.concat_map
        (fun scheme ->
          [
            (Suite.update_metric scheme "cold", "s");
            (Suite.update_metric scheme "warm", "s");
          ])
        zoo;
      s
        [
          "core.tracing.warm_prediction_s";
          "ingest.service.submit_s";
          "ingest.service.open_s";
          "ingest.service.compact_s";
        ];
      per_op "ingest.wal.append";
      per_op "ingest.merge.merge";
      per_op "ingest.delta.encode";
      per_op "ingest.delta.decode";
      s [ "ingest.wal.replay_s"; "profile.db.save_s"; "profile.db.load_s" ];
      count
        [
          "ingest.acked";
          "ingest.duplicates";
          "ingest.quarantined";
          "ingest.replayed";
        ];
      [
        ("ingest.wal_bytes_per_delta", "B");
        ("ingest.deltas_per_s", "1/s");
        ("ingest.submit_p50_us", "us");
        ("ingest.submit_p99_us", "us");
        ("ingest.submit_samples", "count");
        ("ingest.recovery_s", "s");
        ("traced_wall_s", "s");
        ("unattributed_s", "s");
        ("unattributed_share", "ratio");
        ("trace_overhead_s", "s");
        ("util.pool.busy_ratio", "ratio");
        ("util.pool.domains", "count");
        ("failed_ratio", "ratio");
      ];
    ]

(* Each of these selects a different program than the one measured. *)
let refused_knobs =
  List.map
    (fun k -> "FISHER92_" ^ k)
    [
      "NO_CACHE";
      "NO_TRACE";
      "NO_FSYNC";
      "ENGINE";
      "DOMAINS";
      "SHARDS";
      "CRASH_AT";
    ]

let runs_dir = ".perfbench_run"
let golden_programs = [ "lfk"; "doduc"; "compress"; "uncompress"; "spiff" ]
let workloads = [ "suite-cold"; "suite-warm"; "ingest-soak" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload suite-cold|suite-warm|ingest-soak --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args args =
  let rec go acc = function
    | [] -> acc
    | (("--workload" | "--seed" | "--seconds" | "--trace") as k) :: v :: rest
      ->
      go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let opts = go [] args in
  let get k =
    match List.assoc_opt k opts with Some v -> v | None -> usage ()
  in
  let int k =
    match int_of_string_opt (get k) with Some n -> n | None -> usage ()
  in
  let workload = get "--workload" in
  if not (List.mem workload workloads) then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  let trace =
    match get "--trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  (workload, int "--seed", float_of_int seconds, trace)

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun e ->
         let p = Filename.concat dir e in
         let source =
           Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli"
         in
         if Sys.is_directory p then source_files p
         else if source then [ p ]
         else [])

let commit () =
  let git () =
    let ic =
      Unix.open_process_args_in "git"
        [| "git"; "rev-parse"; "--short=12"; "HEAD" |]
    in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some c -> c
    | _ -> "unknown"
  in
  (* a driver's checkout need not be a repository *)
  if not (Sys.file_exists ".git") then "unknown"
  else try git () with Unix.Unix_error _ -> "unknown"

(* What the result depends on besides the code: printed before the JSON. *)
let context ~workload ~seed ~domains =
  let files = List.concat_map source_files [ "lib"; "bin"; "bench" ] in
  let texts = List.map Checks.read_file files in
  let lines =
    List.fold_left
      (fun n t -> n + List.length (String.split_on_char '\n' t) - 1)
      0 texts
  in
  Printf.sprintf
    "context: workload=%s seed=%s commit=%s sources_md5=%s \
     lib_bin_bench_lines=%d nproc=%d domains=%d engine=%s OCAMLRUNPARAM=%s"
    workload
    (if workload = "ingest-soak" then string_of_int seed
     else Printf.sprintf "%d(unused:fixed-registry)" seed)
    (commit ())
    (Digest.to_hex (Digest.string (String.concat "\000" texts)))
    lines
    (Domain.recommended_domain_count ())
    domains
    (match Fisher92_util.Env.engine () with
    | None -> "threaded(default)"
    | Some `Threaded -> "threaded"
    | Some `Interp -> "interp")
    (Option.value ~default:"" (Sys.getenv_opt "OCAMLRUNPARAM"))

let process_cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.tms_stime

(* All registered sections on the five-program golden study, byte for
   byte against test/golden, outside any timing.  Returns its CPU time
   (every domain of this process). *)
let golden_check (tally : Child.tally) =
  let c0 = process_cpu () in
  let workloads = List.map Fisher92_workloads.Registry.find golden_programs in
  let study = lazy (Fisher92.Study.load ~workloads ()) in
  let texts =
    List.map
      (fun (e : Fisher92.Experiment.t) ->
        (e.e_id, Fisher92.Experiment.render_text e study))
      (Fisher92_synth.Sweep.registry ())
  in
  let dir = Filename.concat "test" "golden" in
  let bad = Checks.golden_mismatches ~dir texts in
  tally.attempted <- tally.attempted + List.length texts;
  tally.failed <- tally.failed + List.length bad;
  List.iter
    (fun id -> Child.problem tally ("golden: " ^ id ^ " differs from " ^ dir))
    bad;
  process_cpu () -. c0

let json_metrics metrics =
  List.map
    (fun (name, unit, v) ->
      if not (Float.is_finite v) then failwith (name ^ " is not finite");
      Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit)
    metrics
  |> String.concat ", "

(* One invocation inside [run_dir]: prints the context, the metrics
   and the JSON result; true when every check passed. *)
let report ~workload ~seed ~seconds ~trace ~domains run_dir =
  Unix.putenv "FISHER92_CACHE_DIR" (Filename.concat run_dir "golden-cache");
  Unix.putenv "FISHER92_TRACE_DIR" (Filename.concat run_dir "golden-trace");
  print_endline (context ~workload ~seed ~domains);
  let tally = Child.tally () in
  let golden_cpu = golden_check tally in
  let suite ~warm =
    Suite.run ~warm ~seconds ~trace ~run_dir ~domains ~golden_cpu tally
  in
  let measured, notes =
    match workload with
    | "suite-cold" -> suite ~warm:false
    | "suite-warm" -> suite ~warm:true
    | _ -> Soak.run ~seed ~seconds ~trace ~run_dir ~domains tally
  in
  let failed_ratio =
    float_of_int tally.failed /. float_of_int (max 1 tally.attempted)
  in
  let measured =
    if trace then
      measured
      @ [
          ("util.pool.domains", float_of_int domains);
          ("failed_ratio", failed_ratio);
        ]
    else measured
  in
  let declared = if trace then per_layer () else end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        failwith ("undeclared metric " ^ name))
    measured;
  (* layers a workload does not exercise report 0 *)
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value ~default:0. (List.assoc_opt name measured)))
      declared
  in
  List.iter print_endline notes;
  List.iter (fun (n, u, v) -> Printf.printf "%-40s %14.6g %s\n" n v u) metrics;
  List.iter (fun p -> print_endline ("FAILED " ^ p)) (List.rev tally.problems);
  let correct = tally.problems = [] && tally.failed = 0 in
  let counts =
    Printf.sprintf "\"correct\": %b, \"attempted\": %d, \"failed\": %d"
      correct tally.attempted tally.failed
  in
  Printf.printf "{%s, \"metrics\": {%s}}\n%!" counts (json_metrics metrics);
  correct

let parent args =
  let workload, seed, seconds, trace = parse_args args in
  (match List.filter (fun k -> Sys.getenv_opt k <> None) refused_knobs with
  | [] -> ()
  | set ->
    Printf.eprintf
      "perfbench: refusing to run with %s set: it measures another program\n"
      (String.concat ", " set);
    exit 2);
  if not (Sys.file_exists (Filename.concat "test" "golden")) then begin
    prerr_endline "perfbench: run from the root of a checkout (no test/golden)";
    exit 2
  end;
  let domains = Fisher92_util.Pool.default_domains () in
  let run_dir =
    Child.fresh_dir
      (Filename.concat runs_dir
         (Printf.sprintf "%s-%d" workload (Unix.getpid ())))
  in
  let cleanup () =
    Child.rm_rf run_dir;
    (* shared by concurrent invocations: removed only once empty *)
    try Unix.rmdir runs_dir with Unix.Unix_error _ -> ()
  in
  let correct =
    Fun.protect ~finally:cleanup (fun () ->
        report ~workload ~seed ~seconds ~trace ~domains run_dir)
  in
  if not correct then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "child" :: "suite" :: result :: pass ->
    Suite.child ~result
      ~pass:(match pass with [ p; dir ] -> Some (p, dir) | _ -> None)
  | [ _; "child"; "soak"; plan_file; dir; result ] ->
    Soak.child ~plan_file ~dir ~result ~traced:false
  | [ _; "child"; "soak"; plan_file; dir; result; "traced" ] ->
    Soak.child ~plan_file ~dir ~result ~traced:true
  | _ :: args -> parent args
  | [] -> usage ()
