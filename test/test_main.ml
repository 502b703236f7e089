let () =
  Alcotest.run "cheriabi"
    [ "cap", Test_cap.suite;
      "tagmem", Test_tagmem.suite;
      "isa", Test_isa.suite;
      "engines", Test_engines.suite;
      "vm", Test_vm.suite;
      "pmap", Test_pmap.suite;
      "rtld", Test_rtld.suite;
      "kernel", Test_kernel.suite;
      "kernel-edge", Test_kernel_edge.suite;
      "vfs-exec", Test_vfs.suite;
      "kevent", Test_kernel_edge.kevent_suite;
      "libc", Test_libc.suite;
      "malloc", Test_malloc.suite;
      "cc", Test_cc.suite;
      "cc-ext", Test_cc.extension_suite;
      "cc-errors", Test_cc_errors.suite;
      "analysis", Test_analysis.suite;
      "absint", Test_absint.suite;
      "gamma", Test_gamma.suite;
      "factcache", Test_factcache.suite;
      "core", Test_core.suite;
      "workloads", Test_workloads.suite;
      "cache", Test_workloads.cache_suite;
      "fleet", Test_fleet.suite ]
