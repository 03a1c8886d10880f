open Dynet.Ops

let builtin_schedule ~env ~sigma ~n ~seed =
  let stable s =
    if sigma <= 1 then s else Adversary.Schedule.stabilized ~sigma s
  in
  match (env : Spec.env) with
  | Trace _ | Request_cutter _ -> None
  | Static { p } ->
      Some
        (Adversary.Oblivious.static
           (Dynet.Graph_gen.random_connected (Dynet.Rng.make ~seed) ~n ~p))
  | Tree_rotator -> Some (stable (Adversary.Oblivious.tree_rotator ~seed ~n))
  | Rewiring { extra; rate } ->
      Some
        (stable
           (Adversary.Oblivious.rewiring ~seed ~n
              ~extra:(Option.value extra ~default:n)
              ~rate))
  | Edge_markovian { p_up; p_down } ->
      Some
        (stable
           (Adversary.Oblivious.edge_markovian ~seed ~n
              ~p_up:(Option.value p_up ~default:(2. /. float_of_int n))
              ~p_down))
  | Fresh_random { p } -> Some (Adversary.Oblivious.fresh_random ~seed ~n ~p)

let resolve_trace ?(base_dir = ".") (spec : Spec.t) =
  match spec.env with
  | Spec.Trace { path } -> (
      let full =
        if Filename.is_relative path then Filename.concat base_dir path
        else path
      in
      match Trace_io.load full with
      | Error e -> Error e
      | Ok trace -> (
          match spec.n with
          | Some n when n <> trace.Trace_io.header.n ->
              Error
                (Printf.sprintf
                   "%s: spec says n = %d but the trace carries n = %d" full n
                   trace.Trace_io.header.n)
          | Some _ | None -> Ok (Some trace)))
  | _ -> Ok None

(* Livelock window for looped-trace replays: long enough that no
   live protocol can trip it — two full schedule periods AND two full
   flooding phase cycles (phase_len defaults to n, k phases, and
   flooding provably progresses at least once per phase cycle on
   connected rounds), with a small floor for degenerate instances —
   yet far below the unicast round cap of [4nk + 4n² + 64], so a
   deterministic protocol limit-cycling against the periodic schedule
   (the E17 [s >= 6] corner) stops with [Stalled] instead of spinning
   to the cap. *)
let stall_window ~period ~n ~k = max 64 (max (2 * period) (2 * n * k))

let fault_plan (faults : Spec.faults option) ~seed =
  match faults with
  | None -> Faults.Plan.none
  | Some f ->
      Faults.Plan.make ~loss:f.loss ~dup:f.dup ~crash:f.crash
        ~restart:f.restart ~max_delay:f.max_delay
        ~seed:(Option.value f.fault_seed ~default:seed)
        ()

(* Token placement: source 0 for the single-source shape, a seeded
   random assignment otherwise. *)
let instance (algorithm : Spec.algorithm) ~n ~k ~s ~seed =
  match algorithm with
  | Spec.Single_source -> Gossip.Instance.single_source ~n ~k ~source:0
  | Spec.Flooding | Spec.Multi_source | Spec.Oblivious_rw ->
      if s <= 1 then Gossip.Instance.single_source ~n ~k ~source:0
      else
        Gossip.Instance.multi_source
          ~rng:(Dynet.Rng.make ~seed:(seed + 1))
          ~n ~k
          ~s:(min s (min n k))

(* A spec with its environment materialized: the trace (if any) loaded
   and checked, [n] resolved, the per-repeat seeds laid out.  This is
   the resumable unit the serve scheduler works in — prepare once,
   then run repeats one at a time, checking for cancellation in
   between. *)
type prepared = {
  spec : Spec.t;
  trace : Trace_io.t option;
  n : int;
  seeds : int array;
}

let prepare ?base_dir (spec : Spec.t) =
  match resolve_trace ?base_dir spec with
  | Error e -> Error e
  | Ok trace -> (
      let n =
        match (spec.n, trace) with
        | Some n, _ -> Some n
        | None, Some t -> Some t.Trace_io.header.n
        | None, None -> None
      in
      match n with
      | None -> Error "spec has no n and no trace to take it from"
      | Some n ->
          let seeds = Array.init spec.repeats (fun i -> spec.seed + i) in
          Ok { spec; trace; n; seeds })

(* Trace envs replay with [Loop]: the schedule is periodic, so the
   engines' livelock detector has a sound window to watch. *)
let schedule p ~seed =
  match p.trace with
  | Some t -> Replay.schedule ~past_end:Replay.Loop t
  | None -> (
      match builtin_schedule ~env:p.spec.env ~sigma:p.spec.sigma ~n:p.n ~seed with
      | Some s -> s
      | None ->
          (* Validation rejects flooding/rw × request-cutter, and the
             unicast algorithms route the cutter through [unicast_env]. *)
          invalid_arg "Scenario.Runner: no committed schedule for this env")

let unicast_env p ~seed =
  match p.spec.env with
  | Spec.Request_cutter { cut_prob } ->
      Gossip.Runners.Request_cutting { seed; cut_prob }
  | _ -> Gossip.Runners.Oblivious (schedule p ~seed)

let report_name (spec : Spec.t) ~seed =
  spec.name ^ "/" ^ Spec.algorithm_name spec.algorithm ^ "/seed="
  ^ string_of_int seed

let base_extra (spec : Spec.t) ~n ~seed =
  [
    ("n", Obs.Json.Int n);
    ("k", Obs.Json.Int spec.k);
    ("s", Obs.Json.Int spec.s);
    ("seed", Obs.Json.Int seed);
  ]

let report (spec : Spec.t) ~n ~seed (result : Engine.Run_result.t) =
  Engine.Run_result.to_report ~name:(report_name spec ~seed)
    ~extra:
      (base_extra spec ~n ~seed
      @ [
          ( "amortized_per_token",
            Obs.Json.Float (Engine.Ledger.amortized result.ledger ~k:spec.k)
          );
        ])
    result

(* Algorithm 2 returns its own result record; wrap its merged ledger so
   the report path is uniform. *)
let rw_report (spec : Spec.t) ~n ~seed (r : Gossip.Oblivious_rw.result) =
  let as_run_result =
    Engine.Run_result.make
      ~rounds:
        (r.Gossip.Oblivious_rw.phase1_rounds
        + r.Gossip.Oblivious_rw.phase2_rounds)
      ~completed:r.Gossip.Oblivious_rw.completed
      ~ledger:r.Gossip.Oblivious_rw.ledger ~timeline:[] ()
  in
  Engine.Run_result.to_report ~name:(report_name spec ~seed)
    ~extra:
      (base_extra spec ~n ~seed
      @ [
          ("centers", Obs.Json.Int r.Gossip.Oblivious_rw.centers);
          ( "skipped_phase1",
            Obs.Json.Bool r.Gossip.Oblivious_rw.skipped_phase1 );
          ("phase1_rounds", Obs.Json.Int r.Gossip.Oblivious_rw.phase1_rounds);
          ( "phase1_settled",
            Obs.Json.Bool r.Gossip.Oblivious_rw.phase1_settled );
          ("phase2_rounds", Obs.Json.Int r.Gossip.Oblivious_rw.phase2_rounds);
          ( "paper_messages",
            Obs.Json.Int r.Gossip.Oblivious_rw.paper_messages );
          ( "amortized_per_token",
            Obs.Json.Float
              (float_of_int r.Gossip.Oblivious_rw.paper_messages
              /. float_of_int spec.k) );
        ])
    as_run_result

let run_repeat ?(prof = Obs.Span.null) ?engine ?obs ?cancel p ~seed =
  let spec = p.spec and n = p.n in
  let faults = fault_plan spec.faults ~seed in
  let instance = instance spec.algorithm ~n ~k:spec.k ~s:spec.s ~seed in
  let stall_after =
    Option.map
      (fun t -> stall_window ~period:(Trace_io.rounds t) ~n ~k:spec.k)
      p.trace
  in
  match spec.algorithm with
  | Spec.Flooding ->
      let result, _ =
        Gossip.Runners.flooding ~instance ~schedule:(schedule p ~seed) ?engine
          ~faults ?obs ?cancel ~prof ?max_rounds:spec.max_rounds ?stall_after
          ()
      in
      report spec ~n ~seed result
  | Spec.Single_source ->
      let result, _ =
        Gossip.Runners.single_source ~instance ~env:(unicast_env p ~seed)
          ?engine ~faults ?obs ?cancel ~prof ?max_rounds:spec.max_rounds
          ?stall_after ()
      in
      report spec ~n ~seed result
  | Spec.Multi_source ->
      let result, _ =
        Gossip.Runners.multi_source ~instance ~env:(unicast_env p ~seed)
          ?engine ~faults ?obs ?cancel ~prof ?max_rounds:spec.max_rounds
          ?stall_after ()
      in
      report spec ~n ~seed result
  | Spec.Oblivious_rw ->
      (* Algorithm 2 is not engine-parametric, so it has no round-
         boundary cancel hook: a cancel observed before the repeat
         starts yields a zero-round [Cancelled] report, one arriving
         mid-run takes effect at the next repeat boundary. *)
      let pre_cancelled =
        match cancel with None -> false | Some c -> c ()
      in
      if pre_cancelled then
        report spec ~n ~seed
          (Engine.Run_result.make
             ~outcome:
               (Engine.Run_result.Cancelled { achieved = 0; target = None })
             ~rounds:0 ~completed:false
             ~ledger:(Engine.Ledger.create ())
             ~timeline:[] ())
      else
        let r =
          Gossip.Runners.oblivious_rw ~instance ~schedule:(schedule p ~seed)
            ~seed ~const_f:0.05 ~force_rw:true ?obs ~prof ()
        in
        rw_report spec ~n ~seed r

let run_prepared ?jobs ?prof ?engine ?cancel prepared =
  Analysis.Sweep.map_span ?jobs ?prof
    ~name:("scenario/" ^ prepared.spec.Spec.name)
    (fun ~prof seed -> run_repeat ~prof ?engine ?cancel prepared ~seed)
    prepared.seeds

let run ?jobs ?base_dir ?prof ?engine ?cancel (spec : Spec.t) =
  match prepare ?base_dir spec with
  | Error e -> Error e
  | Ok prepared -> Ok (run_prepared ?jobs ?prof ?engine ?cancel prepared)
