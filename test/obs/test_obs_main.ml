let () =
  Alcotest.run "observability"
    [
      ("counters", Test_obs_counters.suite);
      ("tracing", Test_obs_trace.suite);
      ("config", Test_obs_config.suite);
      ("failures", Test_obs_failure.suite);
      ("op classes", Test_obs_ops.suite);
    ]
