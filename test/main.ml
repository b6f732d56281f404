let () =
  Alcotest.run "mlds"
    [
      "abdm", Test_abdm.suite;
      "abdl", Test_abdl.suite;
      "lil", Test_lil.suite;
      "mbds", Test_mbds.suite;
      "mbds-pool", Test_pool.suite;
      "obs", Test_obs.suite;
      "network", Test_network.suite;
      "daplex", Test_daplex.suite;
      "transformer", Test_transformer.suite;
      "mapping", Test_mapping.suite;
      "codasyl-dml", Test_codasyl_dml.suite;
      "codasyl-network", Test_codasyl_network.suite;
      "daplex-dml", Test_daplex_dml.suite;
      "relational", Test_relational.suite;
      "hierarchical", Test_hierarchical.suite;
      "mlds", Test_mlds.suite;
      "kfs", Test_kfs.suite;
      "wal", Test_wal.suite;
      "crash-states", Test_crash_states.suite;
      "kernel", Test_kernel.suite;
      "kernel-tap", Test_tap.suite;
      "server", Test_server.suite;
      "recorder", Test_recorder.suite;
      "replica", Test_replica.suite;
      "memory", Test_memory.suite;
      "setup", Test_setup.suite;
    ]
