open Dynet.Ops

type result = {
  centers : int;
  skipped_phase1 : bool;
  phase1_rounds : int;
  phase1_settled : bool;
  phase2_rounds : int;
  completed : bool;
  ledger : Engine.Ledger.t;
  paper_messages : int;
}

let run ~instance ~schedule ~seed ?(const_f = 1.0) ?(const_gamma = 1.0)
    ?(force_rw = false) ~phase1_cap ~phase2_cap ?(obs = Obs.Sink.null)
    ?(prof = Obs.Span.null) () =
  let n = Instance.n instance in
  let k = Instance.k instance in
  let s = Instance.source_count instance in
  let emit_phase name round =
    if not (Obs.Sink.is_null obs) then
      Obs.Sink.emit obs (Obs.Trace.Phase { name; round })
  in
  let run_multi_source ~inst ~offset ~init_prev ~cap =
    let states = Multi_source.init ~instance:inst () in
    let adversary ~round ~prev:_ ~states:_ ~traffic:_ =
      Adversary.Schedule.get schedule (round + offset)
    in
    Engine.Runner_unicast.run Multi_source.protocol ?init_prev ~obs ~prof
      ~states ~adversary ~max_rounds:cap
      ~stop:(Multi_source.all_complete ~k)
      ()
  in
  let below_threshold =
    (not force_rw) && float_of_int s <= Bounds.source_threshold ~n ()
  in
  if below_threshold then begin
    emit_phase "multi-source" 0;
    let res, _ =
      Obs.Span.with_span prof ~cat:"algo-phase" "multi-source" (fun () ->
          run_multi_source ~inst:instance ~offset:0 ~init_prev:None
            ~cap:phase2_cap)
    in
    {
      centers = s;
      skipped_phase1 = true;
      phase1_rounds = 0;
      phase1_settled = true;
      phase2_rounds = res.Engine.Run_result.rounds;
      completed = res.Engine.Run_result.completed;
      ledger = res.Engine.Run_result.ledger;
      paper_messages =
        Engine.Ledger.total_excluding res.Engine.Run_result.ledger
          [ Engine.Msg_class.Center ];
    }
  end
  else begin
    let rng = Dynet.Rng.make ~seed in
    let f = Bounds.centers_f ~c:const_f ~n ~k () in
    let gamma = Bounds.degree_gamma ~c:const_gamma ~n ~f () in
    let centers = Array.init n (fun _ -> Dynet.Rng.bernoulli rng (f /. float_of_int n)) in
    if not (Array.exists Fun.id centers) then
      centers.(Dynet.Rng.int rng n) <- true;
    let center_count =
      Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 centers
    in
    let states = Rw_phase.init ~instance ~centers ~gamma ~seed:(seed lxor 0x77) in
    let adversary ~round ~prev:_ ~states:_ ~traffic:_ =
      Adversary.Schedule.get schedule round
    in
    emit_phase "random-walk" 0;
    let res1, states =
      Obs.Span.with_span prof ~cat:"algo-phase" "random-walk" (fun () ->
          Engine.Runner_unicast.run Rw_phase.protocol ~obs ~prof ~states
            ~adversary ~max_rounds:phase1_cap ~stop:Rw_phase.settled ())
    in
    let settled = res1.Engine.Run_result.completed in
    (* Hand off: every remaining holder (centers, plus stragglers if the
       cap was hit) becomes a phase-2 source for the tokens it holds. *)
    let assignment = Array.make n [] in
    Array.iteri
      (fun v st ->
        match Rw_phase.holding st with
        | [] -> ()
        | tokens ->
            let tokens =
              List.sort (fun (a : Token.t) b -> Int.compare a.uid b.uid) tokens
            in
            assignment.(v) <-
              List.mapi (fun i tok -> Token.relabel tok ~src:v ~idx:i) tokens)
      states;
    let inst2 = Instance.make ~n ~assignment in
    let last_graph =
      if res1.Engine.Run_result.rounds = 0 then None
      else Some (Adversary.Schedule.get schedule res1.Engine.Run_result.rounds)
    in
    emit_phase "multi-source" res1.Engine.Run_result.rounds;
    let res2, _ =
      Obs.Span.with_span prof ~cat:"algo-phase" "multi-source" (fun () ->
          run_multi_source ~inst:inst2 ~offset:res1.Engine.Run_result.rounds
            ~init_prev:last_graph ~cap:phase2_cap)
    in
    let ledger =
      Engine.Ledger.merge res1.Engine.Run_result.ledger
        res2.Engine.Run_result.ledger
    in
    {
      centers = center_count;
      skipped_phase1 = false;
      phase1_rounds = res1.Engine.Run_result.rounds;
      phase1_settled = settled;
      phase2_rounds = res2.Engine.Run_result.rounds;
      completed = res2.Engine.Run_result.completed;
      ledger;
      paper_messages =
        Engine.Ledger.total_excluding ledger [ Engine.Msg_class.Center ];
    }
  end
