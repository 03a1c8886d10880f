(* The two batch workloads.  Each part turns seed-derived inputs into
   one run report; everything between the inputs and the engine's first
   round is setup, everything after it is the run. *)

type part = {
  name : string;
  shards : int;
  n : int;
  k : int;
  completes : bool;  (* false: the part is a capped [Partial] run *)
  run :
    engine:(module Engine.Engine_sig.ENGINE) ->
    prepare_s:float ref ->
    Obs.Report.t;
}

let spec_json ~name ~algorithm ~env ?(sigma = 1) ?(s = 1) ~n ~k ~seed () =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.String Scenario.Spec.schema_name);
      ("name", Obs.Json.String name);
      ("algorithm", Obs.Json.String algorithm);
      ("env", Obs.Json.Obj env);
      ("sigma", Obs.Json.Int sigma);
      ("n", Obs.Json.Int n);
      ("k", Obs.Json.Int k);
      ("s", Obs.Json.Int s);
      ("seed", Obs.Json.Int seed);
    ]

let prepare json =
  match Scenario.Spec.of_json json with
  | Error es -> failwith ("invalid spec: " ^ String.concat "; " es)
  | Ok spec -> (
      match Scenario.Runner.prepare spec with
      | Error e -> failwith ("prepare: " ^ e)
      | Ok p -> (spec, p))

let scenario_part ~name ~n ~k json =
  let run ~engine ~prepare_s =
    let t0 = Clock.now_ns () in
    let spec, prepared = prepare json in
    prepare_s := !prepare_s +. Clock.seconds (Clock.now_ns () - t0);
    Scenario.Runner.run_repeat ~engine prepared ~seed:spec.Scenario.Spec.seed
  in
  { name; shards = 1; n; k; completes = true; run }

(* unicast-churn: Algorithm 1 against a memoized tree-rotator schedule,
   and Multi-Source against the request cutter, which recomputes each
   round from the traffic it observed.  Both environments draw afresh
   every round (every sigma rounds for the rotator), so the number of
   rounds, and with it the work, varies by about 2% across seeds.  A
   rewiring schedule keeps one random backbone tree for the whole run,
   and single-source rounds on it range over 2.2x across seeds. *)
let unicast_churn ~seed =
  [
    scenario_part ~name:"ss-rotator" ~n:150 ~k:150
      (spec_json ~name:"ss-rotator" ~algorithm:"single-source"
         ~env:[ ("family", Obs.Json.String "tree-rotator") ]
         ~sigma:3 ~n:150 ~k:150 ~seed ());
    scenario_part ~name:"ms-cutter" ~n:100 ~k:100
      (spec_json ~name:"ms-cutter" ~algorithm:"multi-source"
         ~env:
           [
             ("family", Obs.Json.String "request-cutter");
             ("cut_prob", Obs.Json.Float 0.5);
           ]
         ~s:8 ~n:100 ~k:100 ~seed ());
  ]

let flood_n = 100_000
let flood_k = 32
let flood_shards = 2

(* A d = 8 expander has diameter near 7, so a 16-round phase always
   saturates its token and the static part ends after about k * 16
   rounds.  The tree rotator never saturates a token at this size, so
   the churn part is capped at 50 rounds and reports [Partial].  Churn
   rounds are then about 9% of all rounds, so the pooled 95th
   percentile of round time is a churn round on every seed. *)
let flood_phase_len = 16
let churn_rounds = 50

let flood_part ~name ~seed ~completes ?max_rounds schedule =
  let run ~engine ~prepare_s:_ =
    let instance =
      Gossip.Instance.single_source ~n:flood_n ~k:flood_k ~source:0
    in
    let result, _ =
      Gossip.Runners.flooding ~instance ~schedule:(schedule ()) ~engine
        ~phase_len:flood_phase_len ?max_rounds ()
    in
    Engine.Run_result.to_report
      ~name:(Printf.sprintf "flood-100k/%s/seed=%d" name seed)
      ~extra:
        [
          ("n", Obs.Json.Int flood_n);
          ("k", Obs.Json.Int flood_k);
          ("seed", Obs.Json.Int seed);
        ]
      result
  in
  { name; shards = flood_shards; n = flood_n; k = flood_k; completes; run }

let flood_100k ~seed =
  [
    flood_part ~name:"static" ~seed ~completes:true (fun () ->
        Adversary.Oblivious.static
          (Dynet.Graph_gen.random_regularish (Dynet.Rng.make ~seed) ~n:flood_n
             ~d:8));
    flood_part ~name:"churn" ~seed ~completes:false ~max_rounds:churn_rounds
      (fun () -> Adversary.Oblivious.tree_rotator ~seed ~n:flood_n);
  ]

let engine_of part =
  if part.shards = 1 then Engine.Default.engine
  else Engine.Soa.engine ~shards:part.shards ()

(* {2 Running a part} *)

type result = {
  part : part;
  line : string;  (* the report, as [dynspread scenario run] prints it *)
  report : Obs.Report.t;
  setup_s : float;  (* inputs to the engine's first adversary call *)
  run_s : float;  (* first adversary call to the report *)
  round_s : float array;  (* wall time of each round *)
  prepare_s : float;
  report_s : float;  (* serialising the report *)
  layers : Probe.summary;
}

(* Each part starts from a compacted heap, as it would in a fresh
   process, so one part's garbage does not bill the next one's GC. *)
let run_part probe part =
  Gc.compact ();
  Probe.reset probe;
  let engine = Probe.wrap probe (engine_of part) in
  let prepare_s = ref 0. in
  let t0 = Clock.now_ns () in
  let report = part.run ~engine ~prepare_s in
  let t1 = Clock.now_ns () in
  let first = Probe.first_adversary_ns probe in
  let line = Obs.Json.to_string (Obs.Report.to_json report) in
  let t2 = Clock.now_ns () in
  let layers = Probe.summary probe in
  {
    part;
    line;
    report;
    setup_s = Clock.seconds (first - t0);
    run_s = Clock.seconds (t1 - first);
    round_s = Probe.round_latencies probe;
    prepare_s = !prepare_s;
    report_s = Clock.seconds (t2 - t1);
    layers;
  }

(* Setup alone: the run is abandoned at its first adversary call. *)
let setup_only probe part =
  Gc.compact ();
  Probe.reset probe;
  let engine = Probe.wrap probe (engine_of part) in
  Probe.set_stop_at_setup probe true;
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () -> Probe.set_stop_at_setup probe false)
    (fun () ->
      match part.run ~engine ~prepare_s:(ref 0.) with
      | _ -> failwith (part.name ^ ": run ended before its first round")
      | exception Probe.Setup_reached ->
          Clock.seconds (Probe.first_adversary_ns probe - t0))

(* What a correct report of this part must say, whatever the seed:
   a complete run taught every node every token it did not start
   with; a capped run stopped at its cap; the per-class counts add up
   to the ledger total. *)
let check_report r =
  let rep = r.report in
  let p = r.part in
  let class_sum = List.fold_left (fun a (_, c) -> a + c) 0 rep.Obs.Report.class_counts in
  let problems =
    List.filter_map
      (fun (ok, what) -> if ok then None else Some what)
      [
        (rep.Obs.Report.completed = p.completes, "completion");
        ( (not p.completes) || rep.Obs.Report.learnings = (p.n - 1) * p.k,
          "learnings <> (n - 1) * k" );
        ( p.completes || rep.Obs.Report.rounds = churn_rounds,
          "capped run did not stop at its cap" );
        (class_sum = rep.Obs.Report.messages, "class counts <> messages");
        (r.layers.Probe.rounds = rep.Obs.Report.rounds, "probe rounds <> report");
      ]
  in
  match problems with
  | [] -> Ok ()
  | ps -> Error (Printf.sprintf "%s: %s" p.name (String.concat ", " ps))
