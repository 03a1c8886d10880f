let () =
  Alcotest.run "dynspread"
    [
      ("dynet", Test_dynet.suite);
      ("fastpath", Test_fastpath.suite);
      ("engine", Test_engine.suite);
      ("soa", Test_soa.suite);
      ("adversary", Test_adversary.suite);
      ("gossip", Test_gossip.suite);
      ("protocols", Test_protocols.suite);
      ("random-walk", Test_rw.suite);
      ("analysis", Test_analysis.suite);
      ("coding", Test_coding.suite);
      ("conformance", Test_conformance.suite);
      ("leader-election", Test_leader.suite);
      ("weak-adversary", Test_weak.suite);
      ("obs", Test_obs.suite);
      ("profiler", Test_profiler.suite);
      ("faults", Test_faults.suite);
      ("scenario", Test_scenario.suite);
      ("fuzz", Test_fuzz.suite);
      ("serve", Test_serve.suite);
      ("lint", Test_lint.suite);
      ("check", Test_check.suite);
      ("cli", Test_cli.suite);
    ]
