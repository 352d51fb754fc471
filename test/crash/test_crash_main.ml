let () =
  Alcotest.run "crash-recovery"
    [
      ("matrix: fault point x mutation kind", Test_crash_recovery.matrix);
      ("recovery behaviours", Test_crash_recovery.suite);
      ("sharded crash atomicity", Test_crash_shard.suite);
      ("batch records", Test_crash_group.suite);
      ("on-disk format", Test_crash_format.suite);
    ]
