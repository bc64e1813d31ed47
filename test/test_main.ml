let () =
  Alcotest.run "gigaflow"
    [
      ("util", Test_util.suite);
      Helpers.qsuite "util:props" Test_util.props;
      ("flow", Test_flow.suite);
      Helpers.qsuite "flow:props" Test_flow.props;
      ("classifier", Test_classifier.suite);
      Helpers.qsuite "classifier:props" Test_classifier.props;
      ("pipeline", Test_pipeline.suite);
      Helpers.qsuite "pipeline:props" Test_pipeline.props;
      ("cache", Test_cache.suite);
      Helpers.qsuite "cache:props" Test_cache.props;
      ("core", Test_core.suite);
      Helpers.qsuite "core:props" Test_core.props;
      ("interop", Test_interop.suite);
      ("pipelines", Test_pipelines.suite);
      ("workload", Test_workload.suite);
      ("offload", Test_offload.suite);
      Helpers.qsuite "offload:props" Test_offload.props;
      ("sim", Test_sim.suite);
      Helpers.qsuite "sim:props" Test_sim.props;
      ("telemetry", Test_telemetry.suite);
      Helpers.qsuite "telemetry:props" Test_telemetry.props;
      ("engine", Test_engine.suite);
      ("control", Test_control.suite);
      Helpers.qsuite "engine:props" Test_engine.props;
    ]
