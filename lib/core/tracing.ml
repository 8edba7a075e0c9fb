module Trace = Fisher92_trace.Trace
module Dynamic = Fisher92_predict.Dynamic
module Workload = Fisher92_workloads.Workload
module Vm = Fisher92_vm.Vm
module Pool = Fisher92_util.Pool
module Fingerprint = Fisher92_analysis.Fingerprint
module Env = Fisher92_util.Env

type obtained = { reader : Trace.Reader.t; from_store : bool }

let record ~ir ~program (d : Workload.dataset) =
  let w =
    Trace.Writer.create ~program ~dataset:d.ds_name
      ~fingerprint:(Fingerprint.program_hash ir)
      ~dshash:(Study_cache.dataset_hash d)
      ~n_sites:(Fisher92_ir.Program.n_sites ir)
  in
  let config =
    { Vm.default_config with on_branch = Some (Trace.Writer.feed w) }
  in
  let (_ : Vm.result) = Study.execute ir d ~config () in
  w

let obtain ?(store = true) ~ir ~program (d : Workload.dataset) =
  let use_store = store && Trace.Store.enabled () in
  let fingerprint = Fingerprint.program_hash ir in
  let dshash = Study_cache.dataset_hash d in
  let stored =
    if use_store then
      Trace.Store.load ~program ~dataset:d.ds_name ~fingerprint ~dshash
        ~n_sites:(Fisher92_ir.Program.n_sites ir)
    else None
  in
  match stored with
  | Some reader -> { reader; from_store = true }
  | None ->
    let w = record ~ir ~program d in
    if use_store then Trace.Store.save w;
    (* Round-tripping through the codec (rather than keeping the event
       list) means the store-hit and store-miss paths replay the exact
       same decoder output. *)
    { reader = Trace.Reader.of_string (Trace.Writer.render w); from_store = false }

let warm_prediction (l : Study.loaded) =
  let module Db = Fisher92_profile.Db in
  let db =
    Db.create ~program:l.workload.Workload.w_name
      ~n_sites:(Fisher92_ir.Program.n_sites l.ir)
  in
  List.iter
    (fun (r : Fisher92_metrics.Measure.run) ->
      Db.record db ~dataset:r.dataset r.profile)
    l.runs;
  Db.set_identity db
    ~fingerprint:(Fingerprint.program_hash l.ir)
    ~sitekeys:(Fingerprint.site_keys l.ir);
  (Fisher92_predict.Remap.plan l.ir db).Fisher92_predict.Remap.r_prediction

type raced = {
  rc_scheme : Dynamic.scheme;
  rc_cold : Dynamic.tally;
  rc_warm : Dynamic.tally option;
}

(* A race is one scheme, from cold ([false]) or profile-warmed
   ([true]); [schemes] get both, [cold_only] the cold one. *)
let races_of ~cold_only ~schemes =
  List.map (fun s -> (s, false)) cold_only
  @ List.concat_map (fun s -> [ (s, false); (s, true) ]) schemes

(* the [raced] records of [races_of], given each race's tallies *)
let assemble ~cold_only ~schemes get =
  List.map
    (fun s -> { rc_scheme = s; rc_cold = get (s, false); rc_warm = None })
    cold_only
  @ List.map
      (fun s ->
        {
          rc_scheme = s;
          rc_cold = get (s, false);
          rc_warm = Some (get (s, true));
        })
      schemes

let first_dataset (l : Study.loaded) = List.hd l.workload.Workload.w_datasets

(* Every race in [races] rides one shared decode of the trace. *)
let replay (l : Study.loaded) ~warm reader races =
  let n_sites = Fisher92_ir.Program.n_sites l.ir in
  let sims =
    List.map
      (fun (scheme, warmed) ->
        let warm = if warmed then Some (Lazy.force warm) else None in
        Dynamic.create ?warm scheme ~n_sites)
      races
  in
  let hooks = List.map Dynamic.hook_batch sims in
  Trace.Reader.iter_runs reader (fun st tk rl pr n ->
      List.iter (fun h -> h st tk rl pr n) hooks);
  List.combine races (List.map Dynamic.tally sims)

let tournament_study ?domains ?store ~schemes study =
  Pool.map ?domains
    (fun (l : Study.loaded) ->
      let ob =
        obtain ?store ~ir:l.ir ~program:l.workload.w_name (first_dataset l)
      in
      let warm = lazy (warm_prediction l) in
      let races = races_of ~cold_only:[] ~schemes in
      let tallies = replay l ~warm ob.reader races in
      (l, ob, assemble ~cold_only:[] ~schemes (fun r -> List.assoc r tallies)))
    (Study.items study)

let races ?(cache = true) ?(cold_only = []) ~schemes (l : Study.loaded) =
  let cache = cache && Env.cache_enabled () in
  let program = l.workload.w_name and dataset = first_dataset l in
  let warm = lazy (warm_prediction l) in
  let key =
    lazy
      (Study_cache.key ~fingerprint:(Fingerprint.program_hash l.ir)
         ~n_sites:(Fisher92_ir.Program.n_sites l.ir) ~program dataset)
  in
  let race_key (scheme, warmed) =
    let warm = if warmed then Some (Lazy.force warm) else None in
    Study_cache.race_key (Lazy.force key) ?warm scheme
  in
  let found =
    List.map
      (fun r -> (r, if cache then Study_cache.find_race (race_key r) else None))
      (races_of ~cold_only ~schemes)
  in
  let missing =
    List.filter_map
      (fun (r, t) -> if Option.is_none t then Some r else None)
      found
  in
  (* the trace is obtained, and decoded once, only when a race missed *)
  let computed =
    if missing = [] then []
    else begin
      let ob = obtain ~ir:l.ir ~program dataset in
      let computed = replay l ~warm ob.reader missing in
      if cache then
        List.iter (fun (r, t) -> Study_cache.save_race (race_key r) t) computed;
      computed
    end
  in
  assemble ~cold_only ~schemes (fun r ->
      match List.assoc r found with
      | Some t -> t
      | None -> List.assoc r computed)
