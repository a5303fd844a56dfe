let () =
  Alcotest.run "wampde"
    (Test_linalg.suites @ Test_fourier.suites @ Test_nonlin.suites @ Test_transient.suites
   @ Test_circuit.suites @ Test_sigproc.suites @ Test_steady.suites @ Test_mpde.suites
   @ Test_wampde.suites @ Test_extras.suites @ Test_parser.suites @ Test_failures.suites @ Test_apps.suites @ Test_hb.suites @ Test_api_coverage.suites @ Test_obs.suites
   @ Test_structured.suites @ Test_semidisc.suites @ Test_step_control.suites @ Test_checkpoint.suites
   @ Test_diag.suites @ Test_globalize.suites @ Test_fault.suites @ Test_health.suites
   @ Test_par.suites @ Test_serve.suites @ Test_flight.suites @ Test_cli.suites)
