(* ingest-soak: a closed loop of two client domains, each submitting its
   seeded delta stream through Client.submit to one Service with fsync
   on, then a reopen that recovers by WAL replay.  Every eighth
   submission retries a delta the same client already had acked, so the
   duplicate path runs too.  No suite layer runs here. *)

open Perfbench
module Service = Fisher92_ingest.Service
module Client = Fisher92_ingest.Client
module Delta = Fisher92_ingest.Delta
module Wal = Fisher92_ingest.Wal
module Merge = Fisher92_ingest.Merge
module Db = Fisher92_profile.Db
module Profile = Fisher92_profile.Profile
module Rng = Fisher92_util.Rng
module Fingerprint = Fisher92_analysis.Fingerprint
module Workload = Fisher92_workloads.Workload

(* The pool build: cc1, the registry's model of gcc, whose runs cover
   about 100 of its 103 branch sites.  A compress delta covers 8 of 13
   sites, so its submit was little more than the WAL fsync and the
   iteration's CPU time followed the shared disk's fsync latency. *)
let program = "cc1"
let clients = 2
let per_client = 2400
let retry_every = 8

type plan = {
  cfg : Service.config;  (** [c_dir] is filled in per iteration *)
  subs : (Delta.t * bool) array array;
      (** per client, in submission order: the delta and whether it is a
          retry of one the client already submitted *)
}

(* The deltas are what `fisher92 submit` sends: the profile of one VM
   run of a dataset of the pool build, every executed site with its
   counts and the build's site keys.  The seed picks each submission's
   dataset (which is also its label, as in submit) and its nonce. *)
let make_plan ~seed =
  let w = Fisher92_workloads.Registry.find program in
  let ir = Fisher92.Study.compile_variant w in
  let n_sites = Fisher92_ir.Program.n_sites ir in
  let fingerprint = Fingerprint.program_hash ir in
  let keys = Fingerprint.site_keys ir in
  let cfg =
    {
      Service.c_dir = "";
      c_program = program;
      c_n_sites = n_sites;
      c_fingerprint = fingerprint;
      c_sitekeys = keys;
      c_shards = None;
    }
  in
  let profiles =
    Array.of_list
      (List.map
         (fun (d : Workload.dataset) ->
           let r = Fisher92.Study.execute ir d () in
           (d.ds_name, Profile.of_run ~program r))
         w.w_datasets)
  in
  let rng = Rng.create seed in
  let nonces = Hashtbl.create (clients * per_client) in
  let rec nonce () =
    let n = Rng.int rng (1 lsl 30) in
    if Hashtbl.mem nonces n then nonce ()
    else begin
      Hashtbl.add nonces n ();
      n
    end
  in
  let submission () =
    let label, profile = profiles.(Rng.int rng (Array.length profiles)) in
    Delta.of_profile ~fingerprint ~label ~keys ~nonce:(nonce ()) profile
  in
  let subs =
    Array.init clients (fun _ ->
        let sent = ref [] and n_sent = ref 0 in
        Array.init per_client (fun k ->
            if k mod retry_every = retry_every - 1 then
              (List.nth !sent (Rng.int rng !n_sent), true)
            else begin
              let d = submission () in
              sent := d :: !sent;
              incr n_sent;
              (d, false)
            end))
  in
  { cfg; subs }

let uniques plan =
  Array.to_list plan.subs
  |> List.concat_map (fun s ->
         Array.to_list s
         |> List.filter_map (fun (d, retry) -> if retry then None else Some d))

let latency_file result = result ^ ".lat"

(* ---- child process ---- *)

(* The traced iteration's layer pass, after the service is closed:
   each ingest layer's public function called directly on the unique
   deltas.  Returns the merge time summed over calls. *)
let layer_pass sp plan (cfg : Service.config) =
  let dir = cfg.c_dir in
  let db =
    Clock.span sp "profile.db.load_s" (fun () ->
        Db.load_file (Service.db_path ~dir))
  in
  Clock.span sp "profile.db.save_s" (fun () ->
      Db.save_file db (Filename.concat dir "resaved.db"));
  let uniques = uniques plan in
  let encoded =
    Clock.span sp "ingest.delta.encode_s" (fun () ->
        List.map Delta.encode uniques)
  in
  let (_ : Delta.t list) =
    Clock.span sp "ingest.delta.decode_s" (fun () ->
        List.map Delta.decode encoded)
  in
  let wal =
    Wal.create
      ~dir:(Child.fresh_dir (Filename.concat dir "wal-pass"))
      ~program ~n_sites:cfg.c_n_sites ~fingerprint:cfg.c_fingerprint
      ~generation:0
  in
  Clock.span sp "ingest.wal.append_s" (fun () ->
      List.iter (Wal.append wal) uniques);
  Wal.close wal;
  let merge = Merge.create ~n_sites:cfg.c_n_sites () in
  let per_client =
    Array.map
      (fun s ->
        Array.to_list s
        |> List.filter_map (fun (d, retry) ->
               if retry then None else Some (d.Delta.d_label, Delta.entries d)))
      plan.subs
  in
  let merge_one (label, es) =
    snd (Clock.timed (fun () -> Merge.merge merge ~label es))
  in
  (* per-call time too, so shard-lock waits between the clients count *)
  Clock.span sp "ingest.merge.merge_s" (fun () ->
      Array.map
        (fun mine ->
          Domain.spawn (fun () ->
              List.fold_left (fun acc x -> acc +. merge_one x) 0. mine))
        per_client
      |> Array.fold_left (fun acc d -> acc +. Domain.join d) 0.)

let child ~plan_file ~dir ~result ~traced =
  let plan : plan = In_channel.with_open_bin plan_file Marshal.from_channel in
  let cfg = { plan.cfg with Service.c_dir = dir } in
  let sp = Clock.spans () in
  let span name f = if traced then Clock.span sp name f else f () in
  let t_start = Clock.now () in
  let svc = span "ingest.service.open_s" (fun () -> Service.open_ cfg) in
  let lat = Array.map (fun s -> Array.make (Array.length s) 0.) plan.subs in
  let outcome =
    Array.map (fun s -> Array.make (Array.length s) None) plan.subs
  in
  let (), submit_s =
    Clock.timed (fun () ->
        Array.mapi
          (fun c subs ->
            Domain.spawn (fun () ->
                let rng = Rng.create (c + 1) in
                Array.iteri
                  (fun k (delta, retry) ->
                    let t0 = Clock.now () in
                    let o = Client.submit ~rng svc delta in
                    lat.(c).(k) <- Clock.now () -. t0;
                    outcome.(c).(k) <- Some (o, retry))
                  subs))
          plan.subs
        |> Array.iter Domain.join)
  in
  if traced then Clock.add sp "ingest.service.submit_s" submit_s;
  let quarantined = (Service.stats svc).Service.st_quarantined in
  Service.close ~fold:false svc;
  let wal_bytes = (Unix.stat (Wal.path ~dir)).Unix.st_size in
  (* Extra traced work inside the recovery window, excluded from the
     core time compared with an untraced run. *)
  let replay_s =
    if traced then
      snd
        (Clock.timed (fun () ->
             Clock.span sp "ingest.wal.replay_s" (fun () -> Wal.replay ~dir)))
    else 0.
  in
  let svc, recovery_s = Clock.timed (fun () -> Service.open_ cfg) in
  if traced then Clock.add sp "ingest.service.open_s" recovery_s;
  let replayed = (Service.stats svc).Service.st_replayed in
  span "ingest.service.compact_s" (fun () -> Service.compact svc);
  Service.close svc;
  let t_core = Clock.now () in
  let merge_calls_s = if traced then layer_pass sp plan cfg else 0. in
  let t_end = Clock.now () in
  let outcomes = Array.to_list (Array.concat (Array.to_list outcome)) in
  let count p = List.length (List.filter p outcomes) in
  let acked =
    count (function Some (Service.Acked, false) -> true | _ -> false)
  in
  let duplicates =
    count (function Some (Service.Duplicate, true) -> true | _ -> false)
  in
  Out_channel.with_open_bin (latency_file result) (fun oc ->
      Array.iter (Array.iter (fun x -> Printf.fprintf oc "%.17g\n" x)) lat);
  let i = string_of_int in
  Child.write result
    ([
       ("core_s", Child.f (t_core -. t_start -. replay_s));
       ("wall_s", Child.f (t_end -. t_start));
       ("peak_rss_kb", i (Child.peak_rss_kb ()));
       ("submit_s", Child.f submit_s);
       ("recovery_s", Child.f recovery_s);
       ("submitted", i (List.length outcomes));
       ("acked", i acked);
       ("duplicates", i duplicates);
       ("bad", i (List.length outcomes - acked - duplicates));
       ("merge_calls_s", Child.f merge_calls_s);
       ("quarantined", i quarantined);
       ("replayed", i replayed);
       ("wal_bytes", i wal_bytes);
     ]
    @ List.map (fun (n, t) -> ("span." ^ n, Child.f t)) (Clock.to_list sp))

(* ---- parent side ---- *)

(* Set-ups per invocation (compile the pool build, run its datasets,
   generate and write the plan); the median of their CPU time is
   setup_s. *)
let setup_runs = 9

(* Per label, the counters every unique delta should have left behind. *)
let expected plan =
  let n_sites = plan.cfg.Service.c_n_sites in
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (d : Delta.t) ->
      let enc, tk =
        match Hashtbl.find_opt tbl d.d_label with
        | Some x -> x
        | None ->
          let x = (Array.make n_sites 0, Array.make n_sites 0) in
          Hashtbl.add tbl d.d_label x;
          x
      in
      List.iter
        (fun (s, e, t) ->
          enc.(s) <- enc.(s) + e;
          tk.(s) <- tk.(s) + t)
        (Delta.entries d))
    (uniques plan);
  tbl

let read_latencies result =
  In_channel.with_open_bin (latency_file result) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun l ->
         if l = "" then None else Some (float_of_string l))

(* The user-facing ingest figures: throughput and submit latency
   percentiles over [lat], recovery time; and a note giving each
   percentile's sample count. *)
let ingest_figures ~submit_s ~recovery_s lat =
  let lat = Array.of_list lat in
  Array.sort compare lat;
  let n = Array.length lat in
  let pct p =
    match Sample.percentile ~p lat with
    | Some x -> x
    | None -> failwith (Printf.sprintf "p%d needs more samples than %d" p n)
  in
  let p50 = pct 50 and p99 = pct 99 in
  ( [
      ("ingest.deltas_per_s", float_of_int n /. submit_s);
      ("ingest.submit_p50_us", p50.value *. 1e6);
      ("ingest.submit_p99_us", p99.value *. 1e6);
      ("ingest.submit_samples", float_of_int n);
      ("ingest.recovery_s", recovery_s);
    ],
    Printf.sprintf
      "p50 over %d samples (%d beyond), p99 over %d samples (%d beyond)" p50.n
      p50.beyond p99.n p99.beyond )

let run ~seed ~seconds ~trace ~run_dir ~domains (tally : Child.tally) =
  let plan_file = Filename.concat run_dir "plan" in
  let setups =
    List.init setup_runs (fun _ ->
        let c0 = Clock.thread_cpu () in
        let plan = make_plan ~seed in
        Out_channel.with_open_bin plan_file (fun oc ->
            Marshal.to_channel oc plan []);
        (plan, Clock.thread_cpu () -. c0))
  in
  let plan = fst (List.hd setups) in
  let expected = expected plan in
  let n_unique = List.length (uniques plan) in
  let iteration ?(traced = false) tag =
    let dir = Child.fresh_dir (Filename.concat run_dir "service") in
    let result = Filename.concat run_dir (tag ^ ".result") in
    let r =
      Child.spawn
        ~stdout:(Filename.concat run_dir (tag ^ ".out"))
        ~result
        ([ "soak"; plan_file; dir; result ]
        @ if traced then [ "traced" ] else [])
    in
    let problem fmt =
      Printf.ksprintf (fun m -> Child.problem tally (tag ^ ": " ^ m)) fmt
    in
    let bad = Child.geti r.result "bad" in
    tally.attempted <- tally.attempted + Child.geti r.result "submitted";
    tally.failed <- tally.failed + bad;
    if bad > 0 then
      problem "%d submissions were not acked (or not Duplicate on retry)" bad;
    let replayed = Child.geti r.result "replayed" in
    if replayed <> n_unique then
      problem "recovery replayed %d WAL records, expected %d" replayed n_unique;
    (match Db.load_file (Service.db_path ~dir) with
    | db ->
      Hashtbl.iter
        (fun label (enc, tk) ->
          match Db.profile db ~dataset:label with
          | p when p.Profile.encountered = enc && p.Profile.taken = tk -> ()
          | _ -> problem "recovered counters of %s differ from the deltas" label
          | exception Not_found -> problem "recovered database lacks %s" label)
        expected
    | exception e ->
      problem "strict load of the recovered database failed: %s"
        (Printexc.to_string e));
    (r, read_latencies result)
  in
  let result_f (r, _) k = Child.getf r.Child.result k in
  if not trace then begin
    let runs =
      Child.for_seconds seconds (fun i -> iteration (Printf.sprintf "run%d" i))
    in
    let sum k = List.fold_left (fun a r -> a +. result_f r k) 0. runs in
    let figures, pct_note =
      ingest_figures ~submit_s:(sum "submit_s")
        ~recovery_s:
          (Sample.median (List.map (fun r -> result_f r "recovery_s") runs))
        (List.concat_map snd runs)
    in
    let metrics, note =
      Child.end_to_end ~setups:(List.map snd setups) (List.map fst runs)
    in
    let figure (k, v) = Printf.sprintf "%s %.6g" k v in
    (metrics, note :: pct_note :: List.map figure figures)
  end
  else begin
    let ((u, _) as reference) = iteration "reference" in
    let t, _ = iteration ~traced:true "traced" in
    let figures, pct_note =
      ingest_figures
        ~submit_s:(result_f reference "submit_s")
        ~recovery_s:(result_f reference "recovery_s")
        (snd reference)
    in
    let traced = Child.traced_metrics ~domains ~untraced:u t in
    let per_op seconds = seconds /. float_of_int n_unique *. 1e6 in
    let span_us name = per_op (List.assoc name traced) in
    let get = Child.getf t.result in
    let acked = get "acked" in
    ( traced @ figures
      @ [
          ("ingest.wal.append_us", span_us "ingest.wal.append_s");
          ("ingest.merge.merge_us", per_op (get "merge_calls_s"));
          ("ingest.delta.encode_us", span_us "ingest.delta.encode_s");
          ("ingest.delta.decode_us", span_us "ingest.delta.decode_s");
          ("ingest.acked", acked);
          ("ingest.duplicates", get "duplicates");
          ("ingest.quarantined", get "quarantined");
          ("ingest.replayed", get "replayed");
          ("ingest.wal_bytes_per_delta", get "wal_bytes" /. acked);
        ],
      [ pct_note ] )
  end
