open! Dynet.Ops

type exec = {
  engine : string;
  report : string;
  realized : string;
  error : string option;
}

(* The case as the runner's own materialized spec: the in-memory trace
   stands in for the file its saved spec points at. *)
let prepared (case : Case.t) : Scenario.Runner.prepared =
  {
    spec = Case.to_spec case ~trace_path:"";
    trace = Some (Case.to_trace case);
    n = case.Case.n;
    seeds = [| case.Case.seed |];
  }

(* Only the engines' own typed failures are caught: a crash of any
   other kind (Invalid_argument, Stack_overflow, …) is a harness or
   generator bug and must propagate, not be folded into a "both sides
   failed identically" pass. *)
let execute ~engine ?prof (case : Case.t) =
  let module E = (val engine : Engine.Engine_sig.ENGINE) in
  let recorder = Scenario.Record.create ~n:case.Case.n () in
  let outcome =
    match
      Scenario.Runner.run_repeat ~engine ?prof
        ~on_graph:(Scenario.Record.hook recorder)
        (prepared case) ~seed:case.Case.seed
    with
    | report -> Ok (Obs.Json.to_string (Obs.Report.to_json report))
    | exception Engine.Engine_error.Protocol_violation m ->
        Error ("protocol-violation: " ^ m)
    | exception Engine.Engine_error.Adversary_violation m ->
        Error ("adversary-violation: " ^ m)
    | exception Check.Check_failed m -> Error ("check-failed: " ^ m)
  in
  let realized =
    Scenario.Trace_io.to_string (Scenario.Record.to_trace recorder)
  in
  match outcome with
  | Ok report -> { engine = E.name; report; realized; error = None }
  | Error e -> { engine = E.name; report = ""; realized; error = Some e }

let divergence a b =
  match (a.error, b.error) with
  | Some ea, Some eb when not (String.equal ea eb) ->
      Some
        (Printf.sprintf "%s failed with %s; %s failed with %s" a.engine ea
           b.engine eb)
  | Some e, None ->
      Some (Printf.sprintf "%s failed with %s; %s completed" a.engine e
              b.engine)
  | None, Some e ->
      Some (Printf.sprintf "%s completed; %s failed with %s" a.engine
              b.engine e)
  | None, None when not (String.equal a.report b.report) ->
      Some "run reports differ"
  | (Some _ | None), _ ->
      if not (String.equal a.realized b.realized) then
        Some "realized schedules differ"
      else None

let check ?prof ~engine_a ~engine_b case =
  let a = execute ~engine:engine_a ?prof case in
  let b = execute ~engine:engine_b ?prof case in
  divergence a b
