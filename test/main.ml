(* FlipTracker test runner: unit suites per subsystem, property-based
   suites on the core invariants, and end-to-end experiment checks. *)

let () =
  Alcotest.run "fliptracker"
    [
      Test_value.suite;
      Test_ir.suite;
      Test_op.suite;
      Test_compile.suite;
      Test_machine.suite;
      Test_backend.suite;
      Test_trace.suite;
      Test_static.suite;
      Test_analysis.suite;
      Test_access.suite;
      Test_acl.suite;
      Test_tolerance.suite;
      Test_io.suite;
      Test_stream.suite;
      Test_acl_fixture.suite;
      Test_replay.suite;
      Test_runtime.suite;
      Test_faults.suite;
      Test_patterns.suite;
      Test_predict.suite;
      Test_weighted.suite;
      Test_apps.suite;
      Test_harden.suite;
      Test_mpi.suite;
      Test_recovery.suite;
      Test_experiments.suite;
      Test_usecases.suite;
      Test_integration.suite;
      Test_opt.suite;
      Test_differential.suite;
      Test_arch.suite;
    ]
