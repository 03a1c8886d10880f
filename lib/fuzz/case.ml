open! Dynet.Ops

type t = {
  id : int;
  algorithm : Scenario.Spec.algorithm;
  n : int;
  k : int;
  s : int;
  seed : int;
  max_rounds : int option;
  faults : Scenario.Spec.faults option;
  rounds : Dynet.Graph.t list;
}

let period t = List.length t.rounds

let to_trace t =
  Scenario.Trace_io.of_graphs ~seed:t.seed ~provenance:"fuzz" ~n:t.n t.rounds

let to_spec t ~trace_path : Scenario.Spec.t =
  {
    name = Printf.sprintf "fuzz-%d" t.seed;
    algorithm = t.algorithm;
    env = Scenario.Spec.Trace { path = trace_path };
    sigma = 1;
    n = Some t.n;
    k = t.k;
    s = t.s;
    seed = t.seed;
    repeats = 1;
    faults = t.faults;
    max_rounds = t.max_rounds;
  }

let of_spec (spec : Scenario.Spec.t) ~trace =
  match spec.algorithm with
  | Scenario.Spec.Oblivious_rw ->
      Error "oblivious-rw is not a differential-fuzz algorithm"
  | Scenario.Spec.Flooding | Scenario.Spec.Single_source
  | Scenario.Spec.Multi_source ->
      let n = trace.Scenario.Trace_io.header.n in
      if Scenario.Trace_io.rounds trace < 1 then Error "trace has no rounds"
      else if spec.sigma <> 1 then
        (* A case replays its round graphs as they are. *)
        Error "sigma > 1 stabilizes the trace; a fuzz case has sigma 1"
      else
        let rounds =
          List.rev
            (Scenario.Trace_io.fold_graphs trace ~init:[]
               ~f:(fun acc ~round:_ g -> g :: acc))
        in
        Ok
          {
            id = 0;
            algorithm = spec.algorithm;
            n;
            k = spec.k;
            s = spec.s;
            seed = spec.seed;
            max_rounds = spec.max_rounds;
            faults = spec.faults;
            rounds;
          }

let connected t =
  List.for_all Dynet.Graph.is_connected t.rounds
