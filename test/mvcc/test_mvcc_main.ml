let () =
  Alcotest.run "mvcc"
    [
      ("snapshot sessions", Test_mvcc_sessions.suite);
    ]
