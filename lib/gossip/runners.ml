type unicast_env =
  | Oblivious of Adversary.Schedule.t
  | Request_cutting of { seed : int; cut_prob : float }

let default_unicast_cap ~n ~k = (4 * n * k) + (4 * n * n) + 64
let default_broadcast_cap ~n ~k = (n * k) + n + 64
let default_rw_caps ~n ~k = ((50 * n) + 1000, (4 * n * k) + (4 * n * n))

let unicast_adversary ~n = function
  | Oblivious schedule -> Adversary.Schedule.unicast schedule
  | Request_cutting { seed; cut_prob } ->
      Adversary.Request_cutter.adversary ~seed ~n ~cut_prob

let single_source ~instance ~env ?(engine = Engine.Default.engine)
    ?max_rounds ?stall_after ?cancel ?config ?faults ?obs ?prof ?on_graph () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_unicast_cap ~n ~k)
  in
  let states = Single_source.init ?config ~instance () in
  E.Unicast.run Single_source.protocol ?obs ?faults ?prof ?on_graph
    ?stall_after ?cancel
    ~target_progress:(n * k) ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Single_source.all_complete ~k)
    ()

let multi_source ~instance ~env ?(engine = Engine.Default.engine) ?max_rounds
    ?stall_after ?cancel ?source_order ?seed ?faults ?obs ?prof ?on_graph () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_unicast_cap ~n ~k)
  in
  let states = Multi_source.init ?source_order ?seed ~instance () in
  E.Unicast.run Multi_source.protocol ?obs ?faults ?prof ?on_graph
    ?stall_after ?cancel
    ~target_progress:(n * k) ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Multi_source.all_complete ~k)
    ()

(* {2 Reliable (ack + retransmit) variants} *)

module Reliable_single = Reliable.Make ((val Single_source.protocol))
module Reliable_multi = Reliable.Make ((val Multi_source.protocol))

(* Wire the wrapper's retransmit hook into the trace stream and tally
   wrapper activity into the run's fault counts, so degraded runs
   report their self-healing work alongside the faults it masked. *)
let reliable_obs_hook obs =
  match obs with
  | None -> None
  | Some sink when Obs.Sink.is_null sink -> None
  | Some sink ->
      Some
        (fun ~round ~src ~dst ->
          Obs.Sink.emit sink
            (Obs.Trace.Fault
               { round; kind = "retransmit"; node = src; dst = Some dst;
                 cls = None }))

let note_retransmits (result : Engine.Run_result.t) ~retransmits =
  (match result.Engine.Run_result.fault_counts with
  | Some c -> c.Faults.Counts.retransmits <- retransmits
  | None -> ());
  result

let reliable_single_source ~instance ~env ?max_rounds ?config ?rto ?backoff
    ?faults ?obs ?prof () =
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(2 * default_unicast_cap ~n ~k)
  in
  let states =
    Reliable_single.wrap ?rto ?backoff
      ?on_retransmit:(reliable_obs_hook obs)
      (Single_source.init ?config ~instance ())
  in
  let result, states =
    Engine.Runner_unicast.run Reliable_single.protocol ?obs ?faults ?prof
      ~target_progress:(n * k) ~states
      ~adversary:(unicast_adversary ~n env)
      ~max_rounds
      ~stop:(fun sts ->
        Single_source.all_complete ~k (Array.map Reliable_single.inner sts))
      ()
  in
  let retransmits =
    Array.fold_left (fun acc st -> acc + Reliable_single.retransmits st) 0
      states
  in
  ( note_retransmits result ~retransmits,
    Array.map Reliable_single.inner states,
    retransmits )

let reliable_multi_source ~instance ~env ?max_rounds ?source_order ?seed ?rto
    ?backoff ?faults ?obs ?prof () =
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(2 * default_unicast_cap ~n ~k)
  in
  let states =
    Reliable_multi.wrap ?rto ?backoff
      ?on_retransmit:(reliable_obs_hook obs)
      (Multi_source.init ?source_order ?seed ~instance ())
  in
  let result, states =
    Engine.Runner_unicast.run Reliable_multi.protocol ?obs ?faults ?prof
      ~target_progress:(n * k) ~states
      ~adversary:(unicast_adversary ~n env)
      ~max_rounds
      ~stop:(fun sts ->
        Multi_source.all_complete ~k (Array.map Reliable_multi.inner sts))
      ()
  in
  let retransmits =
    Array.fold_left (fun acc st -> acc + Reliable_multi.retransmits st) 0
      states
  in
  ( note_retransmits result ~retransmits,
    Array.map Reliable_multi.inner states,
    retransmits )

let flooding ~instance ~schedule ?(engine = Engine.Default.engine) ?phase_len
    ?max_rounds ?stall_after ?cancel ?faults ?obs ?prof ?on_graph () =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let states = Flooding.init ~instance ?phase_len () in
  E.Broadcast.run Flooding.protocol ?obs ?faults ?prof ?on_graph ?stall_after
    ?cancel
    ~target_progress:(n * k) ~states
    ~adversary:(Adversary.Schedule.broadcast schedule)
    ~max_rounds
    ~stop:(Flooding.all_complete ~k)
    ()

let token_uid_of_msg = function
  | Payload.Token_msg tok -> Some tok.Token.uid
  | Payload.Completeness _ | Payload.Request _ | Payload.Walk_msg _
  | Payload.Center_announce ->
      None

let flooding_vs_lower_bound ~instance ~seed ?max_rounds ?obs ?prof () =
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed) ~n ~k
  in
  let adversary =
    Adversary.Broadcast_lb.to_engine lb ~knows:Flooding.knows
      ~token_of:token_uid_of_msg
  in
  let states = Flooding.init ~instance () in
  let result, states =
    Engine.Runner_broadcast.run Flooding.protocol ?obs ?prof ~states
      ~adversary
      ~max_rounds
      ~stop:(Flooding.all_complete ~k)
      ()
  in
  (result, states, lb)

let greedy_vs_lower_bound ~instance ~policy ~seed ?max_rounds ?obs ?prof () =
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let lb =
    Adversary.Broadcast_lb.create ~rng:(Dynet.Rng.make ~seed:(seed lxor 0x3c)) ~n ~k
  in
  let adversary =
    Adversary.Broadcast_lb.to_engine lb ~knows:Greedy_bcast.knows
      ~token_of:token_uid_of_msg
  in
  let states = Greedy_bcast.init ~instance ~policy ~seed () in
  let result, states =
    Engine.Runner_broadcast.run Greedy_bcast.protocol ?obs ?prof ~states
      ~adversary
      ~max_rounds
      ~stop:(Greedy_bcast.all_complete ~k)
      ()
  in
  (result, states, lb)

let random_push ~instance ~env ~seed ?max_rounds ?faults ?obs ?prof () =
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(4 * default_unicast_cap ~n ~k)
  in
  let states = Random_push.init ~instance ~seed in
  Engine.Runner_unicast.run Random_push.protocol ?obs ?faults ?prof
    ~target_progress:(n * k) ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Random_push.all_complete ~k)
    ()

let leader_election ~n ~env ?max_rounds ?faults ?obs ?prof () =
  let max_rounds = Option.value max_rounds ~default:((8 * n * n) + 64) in
  let states = Leader_election.init ~n in
  Engine.Runner_unicast.run Leader_election.protocol ?obs ?faults ?prof
    ~target_progress:n ~states
    ~adversary:(unicast_adversary ~n env)
    ~max_rounds
    ~stop:(Leader_election.elected ~n)
    ()

let coded_broadcast ~instance ~schedule ~seed ?max_rounds ?faults ?obs ?prof
    () =
  let n = Instance.n instance and k = Instance.k instance in
  let max_rounds =
    Option.value max_rounds ~default:(default_broadcast_cap ~n ~k)
  in
  let states = Coded_bcast.init ~instance ~seed in
  Engine.Runner_broadcast.run Coded_bcast.protocol ?obs ?faults ?prof
    ~target_progress:(n * k) ~states
    ~adversary:(Adversary.Schedule.broadcast schedule)
    ~max_rounds
    ~stop:(Coded_bcast.all_decoded ~k)
    ()

let oblivious_rw ~instance ~schedule ~seed ?const_f ?const_gamma ?force_rw
    ?phase1_cap ?phase2_cap ?obs ?prof () =
  let cap1, cap2 =
    default_rw_caps ~n:(Instance.n instance) ~k:(Instance.k instance)
  in
  Oblivious_rw.run ~instance ~schedule ~seed ?const_f ?const_gamma ?force_rw
    ~phase1_cap:(Option.value phase1_cap ~default:cap1)
    ~phase2_cap:(Option.value phase2_cap ~default:cap2)
    ?obs ?prof ()
