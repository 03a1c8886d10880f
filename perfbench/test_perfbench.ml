(* Tests of the benchmark's wrapping engine: it must not change what
   the program computes, its counters must repeat, and its timings must
   agree with the engines' own profiling spans. *)

open Perfbench_core

let line r = Obs.Json.to_string (Obs.Report.to_json r)

let spec ~algorithm ~env ?sigma ?s ~n ~k ~seed () =
  snd
    (Batch.prepare
       (Batch.spec_json ~name:"t" ~algorithm
          ~env:(List.map (fun (a, b) -> (a, Obs.Json.String b)) env)
          ?sigma ?s ~n ~k ~seed ()))

let ss = spec ~algorithm:"single-source" ~env:[ ("family", "tree-rotator") ] ~sigma:3
let ms = spec ~algorithm:"multi-source" ~env:[ ("family", "request-cutter") ] ~s:4

let run ?prof ~engine prepared =
  Scenario.Runner.run_repeat ?prof ~engine prepared
    ~seed:prepared.Scenario.Runner.spec.Scenario.Spec.seed

let flood ~engine =
  let n = 2_000 and k = 4 in
  let graph = Dynet.Graph_gen.random_regularish (Dynet.Rng.make ~seed:3) ~n ~d:8 in
  let result, _ =
    Gossip.Runners.flooding
      ~instance:(Gossip.Instance.single_source ~n ~k ~source:0)
      ~schedule:(Adversary.Oblivious.static graph) ~engine ~phase_len:16 ()
  in
  Engine.Run_result.to_report result

let soa2 = Engine.Soa.engine ~shards:2 ()

let test_reports_unchanged () =
  List.iter
    (fun (what, prepared, engine) ->
      let plain = line (run ~engine prepared) in
      List.iter
        (fun traced ->
          let probe = Probe.create ~traced in
          Alcotest.(check string)
            (Printf.sprintf "%s, traced=%b" what traced)
            plain
            (line (run ~engine:(Probe.wrap probe engine) prepared)))
        [ false; true ])
    [
      ("single-source fastpath", ss ~n:24 ~k:24 ~seed:5 (), Engine.Default.engine);
      ("multi-source fastpath", ms ~n:20 ~k:20 ~seed:5 (), Engine.Default.engine);
      ("single-source soa-2", ss ~n:24 ~k:24 ~seed:5 (), soa2);
    ];
  let plain = line (flood ~engine:soa2) in
  let probe = Probe.create ~traced:true in
  Alcotest.(check string) "flooding soa-2, traced" plain
    (line (flood ~engine:(Probe.wrap probe soa2)));
  let l = Probe.summary probe in
  Alcotest.(check int) "plane kernel makes no intent calls" 0 l.Probe.intent.Probe.calls;
  Alcotest.(check int) "plane kernel makes no receive calls" 0 l.Probe.receive.Probe.calls

(* The SoA engine calls [send] from both shard domains; the atomic
   counters must still see every call the fast path sees. *)
let test_shard_domains_counted () =
  let prepared = ms ~n:40 ~k:40 ~seed:2 () in
  let calls engine =
    let probe = Probe.create ~traced:true in
    ignore (run ~engine:(Probe.wrap probe engine) prepared);
    let l = Probe.summary probe in
    (l.Probe.send.Probe.calls, l.Probe.receive.Probe.calls, l.Probe.rounds)
  in
  let fast = calls Engine.Default.engine in
  Alcotest.(check (triple int int int)) "soa-2 counts as fastpath" fast (calls soa2)

let test_counters_repeat () =
  let prepared = ss ~n:40 ~k:40 ~seed:7 () in
  let pass () =
    Gc.compact ();
    let probe = Probe.create ~traced:true in
    let r = run ~engine:(Probe.wrap probe Engine.Default.engine) prepared in
    let l = Probe.summary probe in
    let w (t : Probe.totals) = (t.Probe.calls, t.Probe.mwords) in
    ( (l.Probe.rounds, r.Obs.Report.messages),
      [ w l.Probe.adversary; w l.Probe.send; w l.Probe.receive ],
      l.Probe.engine_mwords )
  in
  let (c1, w1, e1) = pass () and (c2, w2, e2) = pass () in
  Alcotest.(check (pair int int)) "rounds and messages" c1 c2;
  Alcotest.(check (list (pair int (float 0.)))) "calls and minor words per layer" w1 w2;
  Alcotest.(check (float 0.)) "engine minor words" e1 e2

(* Sum the folded-stack self time of every span with the given leaf
   name. *)
let span_self_s prof leaf =
  String.split_on_char '\n' (Obs.Span.to_folded prof)
  |> List.fold_left
       (fun acc l ->
         match String.rindex_opt l ' ' with
         | None -> acc
         | Some i ->
             let path = String.sub l 0 i in
             let us = float_of_string (String.sub l (i + 1) (String.length l - i - 1)) in
             let name =
               match String.rindex_opt path ';' with
               | Some j -> String.sub path (j + 1) (String.length path - j - 1)
               | None -> path
             in
             if String.equal name leaf then acc +. (us *. 1e-6) else acc)
       0.

(* Tolerances.  The wrapper times the adversary closure inside the
   engine's [adversary] span, which does nothing else: the two agree
   within 5% (plus 2 ms of clock granularity).  The engine's [send]
   span also routes and charges the messages the protocol returns;
   at n = 60 the protocol's own [send] is about 80% of it, so the
   wrapper must account for 70% to 105% of the span. *)
let test_agrees_with_spans () =
  let prepared = ss ~n:60 ~k:60 ~seed:3 () in
  let prof = Obs.Span.create () in
  let probe = Probe.create ~traced:true in
  ignore (run ~prof ~engine:(Probe.wrap probe Engine.Default.engine) prepared);
  let l = Probe.summary probe in
  List.iter
    (fun (leaf, wrapped, low) ->
      let span = span_self_s prof leaf in
      if not (wrapped >= (low *. span) -. 0.002 && wrapped <= (1.05 *. span) +. 0.002)
      then
        Alcotest.failf "%s: wrapper %.4f s against span self time %.4f s" leaf
          wrapped span)
    [
      ("adversary", l.Probe.adversary.Probe.seconds, 0.95);
      ("send", l.Probe.send.Probe.seconds, 0.7);
    ]

let () =
  Alcotest.run "perfbench"
    [
      ( "probe",
        [
          Alcotest.test_case "reports unchanged" `Quick test_reports_unchanged;
          Alcotest.test_case "shard domains counted" `Quick test_shard_domains_counted;
          Alcotest.test_case "counters repeat" `Quick test_counters_repeat;
          Alcotest.test_case "agrees with spans" `Quick test_agrees_with_spans;
        ] );
    ]
