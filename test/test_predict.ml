module Profile = Fisher92_profile.Profile
module Prediction = Fisher92_predict.Prediction
module Combine = Fisher92_predict.Combine
module Heuristic = Fisher92_predict.Heuristic
module Dynamic = Fisher92_predict.Dynamic
module T = Fisher92_testsupport.Testsupport

let mk encountered taken =
  {
    Profile.program = "p";
    encountered = Array.of_list encountered;
    taken = Array.of_list taken;
  }

let test_of_profile () =
  let p = mk [ 10; 0; 4 ] [ 9; 0; 1 ] in
  Alcotest.(check (array bool)) "majority" [| true; false; false |]
    (Prediction.of_profile p);
  Alcotest.(check (array bool)) "default taken" [| true; true; false |]
    (Prediction.of_profile ~default:true p)

let test_percent_correct () =
  let p = mk [ 10 ] [ 8 ] in
  Alcotest.(check (float 1e-9)) "taken" 80.0
    (Prediction.percent_correct [| true |] p);
  Alcotest.(check (float 1e-9)) "not taken" 20.0
    (Prediction.percent_correct [| false |] p)

let test_agreement () =
  let p = mk [ 6; 4 ] [ 0; 0 ] in
  Alcotest.(check (float 1e-9)) "full" 1.0
    (Prediction.agreement [| true; false |] [| true; false |] ~on:p);
  Alcotest.(check (float 1e-9)) "weighted partial" 0.6
    (Prediction.agreement [| true; false |] [| true; true |] ~on:p)

(* ---- combine ---- *)

let test_unscaled_vs_scaled () =
  (* a huge run dominates the unscaled sum but not the scaled one *)
  let big = mk [ 1000 ] [ 1000 ] in
  let small1 = mk [ 10 ] [ 0 ] in
  let small2 = mk [ 10 ] [ 0 ] in
  let unscaled = Combine.predict Combine.Unscaled [ big; small1; small2 ] in
  let scaled = Combine.predict Combine.Scaled [ big; small1; small2 ] in
  Alcotest.(check (array bool)) "unscaled follows the big run" [| true |] unscaled;
  Alcotest.(check (array bool)) "scaled follows the majority of runs" [| false |]
    scaled

let test_polling () =
  (* polling: one vote per dataset irrespective of counts *)
  let a = mk [ 100 ] [ 100 ] in
  let b = mk [ 2 ] [ 0 ] in
  let c = mk [ 2 ] [ 0 ] in
  Alcotest.(check (array bool)) "two not-taken votes win" [| false |]
    (Combine.predict Combine.Polling [ a; b; c ])

let test_combine_unseen_default () =
  let a = mk [ 0; 5 ] [ 0; 5 ] in
  Alcotest.(check (array bool)) "unseen site defaults not-taken"
    [| false; true |]
    (Combine.predict Combine.Scaled [ a ]);
  Alcotest.(check (array bool)) "custom default" [| true; true |]
    (Combine.predict ~default:true Combine.Scaled [ a ])

let test_combine_rejects () =
  Alcotest.(check bool) "empty list rejected" true
    (match Combine.combine Combine.Scaled [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_strategy_names () =
  Alcotest.(check (list string)) "names"
    [ "unscaled"; "scaled"; "polling" ]
    (List.map Combine.strategy_name Combine.[ Unscaled; Scaled; Polling ])

(* ---- heuristics ---- *)

let loopy_program =
  let open Fisher92_minic.Dsl in
  program "loopy" ~entry:"main"
    [
      fn "main" [] ~ret:Fisher92_minic.Ast.Tint
        [
          leti "acc" (i 0);
          for_ "k" (i 0) (i 100) [ set "acc" (v "acc" +: v "k") ];
          when_ (v "acc" >: i 100) [ out (i 1) ];
          out (v "acc");
          ret (i 0);
        ];
    ]

let test_btfn_marks_back_edges () =
  let ir = T.compile loopy_program in
  let pred = Heuristic.backward_taken ir in
  (* the program has exactly one backward branch (the for back edge) and
     one forward branch (the when_) *)
  let backward = Array.to_list pred |> List.filter (fun b -> b) in
  Alcotest.(check int) "one backward branch" 1 (List.length backward);
  Alcotest.(check int) "two sites" 2 (Array.length pred)

let test_loop_struct_heuristic () =
  let ir = T.compile loopy_program in
  let pred = Heuristic.loop_struct ir in
  (* for-loop back edge predicted taken, if site not *)
  Alcotest.(check int) "one loop site" 1
    (Array.to_list pred |> List.filter (fun b -> b) |> List.length);
  (* and it is the same site BTFN calls backward *)
  Alcotest.(check (array bool)) "agrees with btfn here"
    (Heuristic.backward_taken ir) pred

let test_site_infos () =
  let ir = T.compile loopy_program in
  let infos = Heuristic.analyze ir in
  Alcotest.(check int) "two sites" 2 (Array.length infos);
  (* the for loop is rotated (entry jumps to the test cluster, which is
     the natural-loop header), so its latch shows up as a backward
     branch whose taken side stays in the loop *)
  let iter_sites =
    Array.to_list infos
    |> List.filter (fun (si : Heuristic.site_info) ->
           si.si_back_edge = Some true || si.si_stay = Some true)
  in
  Alcotest.(check int) "one iteration site" 1 (List.length iter_sites);
  List.iter
    (fun (si : Heuristic.site_info) ->
      Alcotest.(check bool) "iteration branch is backward" true si.si_backward)
    iter_sites

let test_btfn_beats_naive_on_loops () =
  let ir = T.compile loopy_program in
  let r = T.run_vm ir in
  let profile = Profile.of_run ~program:"loopy" r in
  let miss pred = Profile.mispredicts ~prediction:(pred ir) profile in
  Alcotest.(check bool) "btfn beats always-not-taken" true
    (miss Heuristic.backward_taken < miss Heuristic.always_not_taken);
  (* on this loop-dominated program BTFN matches the best static choice *)
  Alcotest.(check int) "btfn is optimal here"
    (Profile.best_mispredicts profile)
    (miss Heuristic.backward_taken)

let test_heuristic_names () =
  let names = List.map (fun (h : Heuristic.t) -> h.h_name) Heuristic.all in
  Alcotest.(check (list string)) "names"
    [ "btfn"; "loop-struct"; "opcode"; "call-avoiding"; "return-avoiding";
      "ball-larus"; "always-taken"; "always-not-taken" ]
    names;
  Alcotest.(check bool) "find btfn" true (Heuristic.find "btfn" <> None);
  Alcotest.(check bool) "find unknown" true (Heuristic.find "nope" = None)

(* ---- dynamic ---- *)

let feed sim history = List.iter (fun taken -> Dynamic.hook sim 0 taken) history

let test_one_bit () =
  let sim = Dynamic.create Dynamic.Last_direction ~n_sites:1 in
  feed sim [ true; true; true; false; true ];
  (* cold predictor says not-taken: T(miss) T(hit) T(hit) F(miss) T(miss) *)
  Alcotest.(check int) "correct" 2 (Dynamic.correct sim);
  Alcotest.(check int) "incorrect" 3 (Dynamic.incorrect sim)

let test_two_bit_hysteresis () =
  let sim = Dynamic.create Dynamic.Two_bit ~n_sites:1 in
  (* warm up to strongly-taken, then a single not-taken blip must not
     flip the next prediction (the point of 2-bit counters) *)
  feed sim [ true; true; true; true ];
  let before = Dynamic.correct sim in
  feed sim [ false ];
  feed sim [ true ];
  Alcotest.(check int) "blip costs one miss only"
    (before + 1)
    (Dynamic.correct sim);
  ignore before

let test_static_scheme () =
  let sim = Dynamic.create (Dynamic.Static [| true |]) ~n_sites:1 in
  feed sim [ true; false; true ];
  Alcotest.(check int) "static correct" 2 (Dynamic.correct sim);
  Alcotest.(check (float 1e-9)) "percent" (100.0 *. 2.0 /. 3.0)
    (Dynamic.percent_correct sim)

let test_two_bit_tracks_majority () =
  (* on a heavily biased branch the 2-bit counter approaches the static
     majority accuracy *)
  let sim2 = Dynamic.create Dynamic.Two_bit ~n_sites:1 in
  let rng = Fisher92_util.Rng.create 5 in
  let history =
    List.init 10_000 (fun _ -> Fisher92_util.Rng.chance rng 0.9)
  in
  List.iter (fun t -> Dynamic.hook sim2 0 t) history;
  Alcotest.(check bool) "2-bit close to 90%" true
    (Dynamic.percent_correct sim2 > 84.0)

(* ---- remap: the stale-profile degradation chain ---- *)

module Remap = Fisher92_predict.Remap
module Db = Fisher92_profile.Db
module Fingerprint = Fisher92_analysis.Fingerprint
module Program = Fisher92_ir.Program

let sample_db () =
  let ir = T.compile T.sample_program in
  let r = T.run_vm ~iargs:[ 6 ] ir in
  let p = Profile.of_run ~program:"sample" r in
  let db = Db.create ~program:"sample" ~n_sites:(Program.n_sites ir) in
  Db.record db ~dataset:"d" p;
  Db.set_identity db
    ~fingerprint:(Fingerprint.program_hash ir)
    ~sitekeys:(Fingerprint.site_keys ir);
  (ir, p, db)

let test_remap_fresh_is_exact () =
  let ir, p, db = sample_db () in
  let plan = Remap.plan ir db in
  Alcotest.(check bool) "not stale" false plan.Remap.r_stale;
  Alcotest.(check bool) "verified" true plan.Remap.r_verified;
  let exact, remapped, _, _, _ = Remap.counts plan in
  Alcotest.(check int) "exact = covered sites" (Profile.covered_sites p) exact;
  Alcotest.(check int) "nothing remapped" 0 remapped;
  (* on covered sites the chain reproduces the majority prediction *)
  let majority = Fisher92_predict.Prediction.of_profile p in
  Array.iteri
    (fun s enc ->
      if enc > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "site %d" s)
          majority.(s)
          plan.Remap.r_prediction.(s))
    p.Profile.encountered

let test_remap_stale_recovers_counters () =
  let ir, p, db = sample_db () in
  let mutated = Fisher92.Experiments.mutate_source T.sample_program in
  let mir = T.compile mutated in
  Alcotest.(check int) "mutation adds one site"
    (Program.n_sites ir + 1) (Program.n_sites mir);
  let plan = Remap.plan mir db in
  Alcotest.(check bool) "stale" true plan.Remap.r_stale;
  let exact, remapped, proof, heuristic, default = Remap.counts plan in
  Alcotest.(check int) "no exact sites on a stale db" 0 exact;
  Alcotest.(check bool) "most old sites remap" true
    (remapped >= Profile.covered_sites p);
  Alcotest.(check int) "every site accounted for" (Program.n_sites mir)
    (exact + remapped + proof + heuristic + default)

(* the whole-image fingerprint: a rebuild that changes only a constant
   reads as stale, and its counters are re-attached by site keys to the
   same predictions *)
let test_remap_constant_edit () =
  let old_ir = T.compile (T.counted_loop 100) in
  let new_ir = T.compile (T.counted_loop 200) in
  let p = Profile.of_run ~program:"bounded" (T.run_vm old_ir) in
  let db = Db.create ~program:"bounded" ~n_sites:(Program.n_sites old_ir) in
  Db.record db ~dataset:"d" p;
  Db.set_identity db
    ~fingerprint:(Fingerprint.program_hash old_ir)
    ~sitekeys:(Fingerprint.site_keys old_ir);
  let fresh = Remap.plan old_ir db and stale = Remap.plan new_ir db in
  Alcotest.(check bool) "the recorded build is fresh" false fresh.Remap.r_stale;
  Alcotest.(check bool) "the edited build is stale" true stale.Remap.r_stale;
  let _, remapped, _, _, _ = Remap.counts stale in
  Alcotest.(check int) "every covered site remapped"
    (Profile.covered_sites p) remapped;
  Alcotest.(check (array bool)) "same predictions" fresh.Remap.r_prediction
    stale.Remap.r_prediction

let test_remap_without_sitekeys_degrades () =
  let ir, _, _ = sample_db () in
  (* a shape-mismatched legacy db: no fingerprint, no keys, wrong count *)
  let old = Db.create ~program:"sample" ~n_sites:(Program.n_sites ir + 3) in
  let plan = Remap.plan ir old in
  Alcotest.(check bool) "stale" true plan.Remap.r_stale;
  Alcotest.(check bool) "unverified" false plan.Remap.r_verified;
  let exact, remapped, proof, heuristic, default = Remap.counts plan in
  Alcotest.(check int) "no exact" 0 exact;
  Alcotest.(check int) "no remap without keys" 0 remapped;
  Alcotest.(check int) "all proof/heuristic/default" (Program.n_sites ir)
    (proof + heuristic + default)

let () =
  Alcotest.run "predict"
    [
      ( "prediction",
        [
          Alcotest.test_case "of_profile" `Quick test_of_profile;
          Alcotest.test_case "percent correct" `Quick test_percent_correct;
          Alcotest.test_case "agreement" `Quick test_agreement;
        ] );
      ( "combine",
        [
          Alcotest.test_case "unscaled vs scaled" `Quick test_unscaled_vs_scaled;
          Alcotest.test_case "polling" `Quick test_polling;
          Alcotest.test_case "unseen default" `Quick test_combine_unseen_default;
          Alcotest.test_case "rejects empty" `Quick test_combine_rejects;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ( "heuristic",
        [
          Alcotest.test_case "btfn back edges" `Quick test_btfn_marks_back_edges;
          Alcotest.test_case "loop structure" `Quick test_loop_struct_heuristic;
          Alcotest.test_case "site infos" `Quick test_site_infos;
          Alcotest.test_case "btfn beats naive" `Quick test_btfn_beats_naive_on_loops;
          Alcotest.test_case "names" `Quick test_heuristic_names;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "1-bit" `Quick test_one_bit;
          Alcotest.test_case "2-bit hysteresis" `Quick test_two_bit_hysteresis;
          Alcotest.test_case "static scheme" `Quick test_static_scheme;
          Alcotest.test_case "2-bit near majority" `Quick
            test_two_bit_tracks_majority;
        ] );
      ( "remap",
        [
          Alcotest.test_case "fresh db is exact" `Quick test_remap_fresh_is_exact;
          Alcotest.test_case "stale db remaps counters" `Quick
            test_remap_stale_recovers_counters;
          Alcotest.test_case "constant-only rebuild is stale" `Quick
            test_remap_constant_edit;
          Alcotest.test_case "keyless mismatch degrades" `Quick
            test_remap_without_sitekeys_degrades;
        ] );
    ]
