let () =
  Alcotest.run "cache"
    [
      ("compile path", Test_cache_unit.compile_suite);
      ("getLink memo", Test_cache_unit.memo_suite);
      ("differential", Test_cache_diff.suite);
    ]
