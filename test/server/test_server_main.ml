let () =
  Alcotest.run "server"
    [ Test_framing.suite; Test_wire.suite; Test_fuzz.suite; Test_dispatch.suite ]
