let () =
  Alcotest.run "chaos"
    [
      ("fault-domain behaviours", Test_chaos_faults.suite);
    ]
