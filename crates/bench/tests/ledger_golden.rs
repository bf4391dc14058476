//! Golden test for the experiment-ledger line shapes.
//!
//! Every [`LedgerEvent`] variant's JSON line is pinned byte-for-byte,
//! along with the schema version and the file header. If any assertion
//! here changes, `LEDGER_SCHEMA_VERSION` must be bumped and downstream
//! consumers (`amlinspect`, external tooling reading `ledger.jsonl`)
//! revisited — adding a *new* event type or a trailing field is the only
//! change that may land without a bump.

use aml_telemetry::sink::RunHeader;
use aml_telemetry::{
    ledger, EnsembleMember, LedgerEvent, LedgerJsonlSink, ParamValue, Sink, Snapshot, SpaceDim,
    SpaceFamily, LEDGER_SCHEMA_VERSION,
};

#[test]
fn schema_version_is_pinned() {
    assert_eq!(
        LEDGER_SCHEMA_VERSION, 2,
        "bumping the ledger schema version requires updating this golden test \
         and the ledger reader (`ledger::read`) together"
    );
}

#[test]
fn every_event_line_shape_is_pinned() {
    let cases: Vec<(LedgerEvent, &str)> = vec![
        (
            LedgerEvent::TrialStarted {
                trial: 4,
                family: "forest".into(),
                config: "ForestConfig { trees: 8 }".into(),
                params: vec![
                    ("trees".into(), ParamValue::Int(8)),
                    ("lr".into(), ParamValue::Float(0.125)),
                    ("criterion".into(), ParamValue::Cat("gini".into())),
                ],
            },
            r#"{"type":"trial_started","trial":4,"family":"forest","config":"ForestConfig { trees: 8 }","params":{"trees":8,"lr":0.125,"criterion":"gini"}}"#,
        ),
        (
            // An empty params map still renders the object, so schema-v1
            // consumers see a stable trailing field.
            LedgerEvent::TrialStarted {
                trial: 5,
                family: "nb".into(),
                config: "NbConfig".into(),
                params: vec![],
            },
            r#"{"type":"trial_started","trial":5,"family":"nb","config":"NbConfig","params":{}}"#,
        ),
        (
            LedgerEvent::SearchSpace {
                families: vec![SpaceFamily {
                    family: "knn".into(),
                    dims: vec![
                        SpaceDim {
                            name: "k".into(),
                            kind: "int".into(),
                            scale: "linear".into(),
                            lo: 1.0,
                            hi: 25.0,
                            choices: vec![],
                        },
                        SpaceDim {
                            name: "weights".into(),
                            kind: "cat".into(),
                            scale: "linear".into(),
                            lo: 0.0,
                            hi: 0.0,
                            choices: vec!["uniform".into(), "distance".into()],
                        },
                    ],
                }],
            },
            r#"{"type":"search_space","families":[{"family":"knn","dims":[{"name":"k","kind":"int","scale":"linear","lo":1,"hi":25,"choices":[]},{"name":"weights","kind":"cat","scale":"linear","lo":0,"hi":0,"choices":["uniform","distance"]}]}]}"#,
        ),
        (
            LedgerEvent::TrialFinished {
                trial: 4,
                family: "forest".into(),
                score: 0.875,
            },
            r#"{"type":"trial_finished","trial":4,"family":"forest","score":0.875}"#,
        ),
        (
            LedgerEvent::TrialFailed {
                trial: 9,
                family: "mlp".into(),
                reason: "timeout".into(),
            },
            r#"{"type":"trial_failed","trial":9,"family":"mlp","reason":"timeout"}"#,
        ),
        (
            LedgerEvent::EnsembleSelected {
                val_score: 0.9375,
                members: vec![
                    EnsembleMember {
                        trial: 4,
                        family: "forest".into(),
                        weight: 3.0,
                        score: 0.875,
                    },
                    EnsembleMember {
                        trial: 7,
                        family: "logreg".into(),
                        weight: 1.0,
                        score: 0.75,
                    },
                ],
            },
            r#"{"type":"ensemble_selected","val_score":0.9375,"members":[{"trial":4,"family":"forest","weight":3,"score":0.875},{"trial":7,"family":"logreg","weight":1,"score":0.75}]}"#,
        ),
        (
            LedgerEvent::RoundCompleted {
                round: 2,
                strategy: "Within-ALE".into(),
                acc_mean: 0.8125,
                acc_min: 0.75,
                acc_max: 0.875,
                points_added: 40,
                regions: 3,
                ale_std_mean: 0.0625,
                ale_std_max: 0.125,
                scores: vec![0.75, 0.8125, 0.875],
            },
            r#"{"type":"round_completed","round":2,"strategy":"Within-ALE","acc_mean":0.8125,"acc_min":0.75,"acc_max":0.875,"points_added":40,"regions":3,"ale_std_mean":0.0625,"ale_std_max":0.125,"scores":[0.75,0.8125,0.875]}"#,
        ),
        (
            LedgerEvent::RegionSuggested {
                feature: 0,
                name: "pkt_size".into(),
                threshold: 0.0625,
                intervals: vec![(0.25, 0.5), (0.75, 1.0)],
                grid: vec![0.0, 0.5, 1.0],
                mean: vec![0.125, 0.25, 0.125],
                std: vec![0.03125, 0.0625, 0.03125],
            },
            r#"{"type":"region_suggested","feature":0,"name":"pkt_size","threshold":0.0625,"intervals":[[0.25,0.5],[0.75,1]],"grid":[0,0.5,1],"mean":[0.125,0.25,0.125],"std":[0.03125,0.0625,0.03125]}"#,
        ),
        (
            LedgerEvent::AleCurveComputed {
                feature: 1,
                model: "forest".into(),
                method: "ale".into(),
                grid_points: 16,
                rows: 400,
            },
            r#"{"type":"ale_curve","feature":1,"model":"forest","method":"ale","grid_points":16,"rows":400}"#,
        ),
    ];
    for (event, golden) in &cases {
        assert_eq!(&event.to_json_line(), golden, "line shape drifted");
    }
    // Non-finite floats are encoded as null, never NaN/inf tokens.
    let line = LedgerEvent::TrialFinished {
        trial: 0,
        family: "mlp".into(),
        score: f64::INFINITY,
    }
    .to_json_line();
    assert_eq!(
        line,
        r#"{"type":"trial_finished","trial":0,"family":"mlp","score":null}"#
    );
}

/// The full file round trip: header + every variant through the sink,
/// back through the ledger reader.
#[test]
fn ledger_file_round_trips_through_the_ledger_reader() {
    let dir = std::env::temp_dir().join(format!("aml_ledger_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ledger.jsonl");
    let header = RunHeader {
        run_id: "table1_scream-s11-p2".into(),
        workload: "table1_scream".into(),
        seed: 11,
        git: "abc1234".into(),
    };
    let sink = LedgerJsonlSink::create(&path, &header).unwrap();
    sink.on_ledger_event(&LedgerEvent::SearchSpace {
        families: vec![SpaceFamily {
            family: "forest".into(),
            dims: vec![SpaceDim {
                name: "trees".into(),
                kind: "int".into(),
                scale: "linear".into(),
                lo: 4.0,
                hi: 16.0,
                choices: vec![],
            }],
        }],
    });
    sink.on_ledger_event(&LedgerEvent::TrialStarted {
        trial: 0,
        family: "forest".into(),
        config: "ForestConfig { trees: 8 }".into(),
        params: vec![("trees".into(), ParamValue::Int(8))],
    });
    sink.on_ledger_event(&LedgerEvent::TrialFinished {
        trial: 0,
        family: "forest".into(),
        score: 0.875,
    });
    sink.on_ledger_event(&LedgerEvent::TrialFailed {
        trial: 1,
        family: "mlp".into(),
        reason: "error".into(),
    });
    sink.on_ledger_event(&LedgerEvent::EnsembleSelected {
        val_score: 0.9375,
        members: vec![EnsembleMember {
            trial: 0,
            family: "forest".into(),
            weight: 2.0,
            score: 0.875,
        }],
    });
    sink.on_ledger_event(&LedgerEvent::RoundCompleted {
        round: 0,
        strategy: "Random".into(),
        acc_mean: 0.75,
        acc_min: 0.5,
        acc_max: 1.0,
        points_added: 40,
        regions: 0,
        ale_std_mean: 0.0,
        ale_std_max: 0.0,
        scores: vec![0.5, 1.0, 0.75],
    });
    sink.on_ledger_event(&LedgerEvent::RegionSuggested {
        feature: 2,
        name: "ttl".into(),
        threshold: 0.125,
        intervals: vec![(0.5, 0.75)],
        grid: vec![0.0, 0.5, 1.0],
        mean: vec![0.25, 0.5, 0.25],
        std: vec![0.0625, 0.25, 0.0625],
    });
    sink.on_ledger_event(&LedgerEvent::AleCurveComputed {
        feature: 2,
        model: "forest".into(),
        method: "pdp".into(),
        grid_points: 3,
        rows: 100,
    });
    sink.finish(&Snapshot::default()).unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    // Pin the header shape too.
    assert!(
        text.starts_with(
            "{\"type\":\"ledger\",\"schema_version\":2,\"run_id\":\"table1_scream-s11-p2\",\
             \"workload\":\"table1_scream\",\"seed\":11,\"git\":\"abc1234\"}\n"
        ),
        "header drifted: {}",
        text.lines().next().unwrap_or_default()
    );

    let (header, events) = ledger::read(&text).unwrap();
    assert_eq!(header.run_id, "table1_scream-s11-p2");
    assert_eq!(header.workload, "table1_scream");
    assert_eq!(header.seed, 11);
    assert_eq!(header.git, "abc1234");
    let count = |is: fn(&LedgerEvent) -> bool| events.iter().filter(|e| is(e)).count();
    assert_eq!(count(|e| matches!(e, LedgerEvent::TrialStarted { .. })), 1);
    assert_eq!(count(|e| matches!(e, LedgerEvent::TrialFinished { .. })), 1);
    assert_eq!(count(|e| matches!(e, LedgerEvent::TrialFailed { .. })), 1);
    assert_eq!(
        count(|e| matches!(e, LedgerEvent::EnsembleSelected { .. })),
        1
    );
    assert_eq!(
        count(|e| matches!(e, LedgerEvent::RoundCompleted { .. })),
        1
    );
    assert!(events.iter().any(|e| matches!(
        e,
        LedgerEvent::RegionSuggested { intervals, .. } if intervals == &[(0.5, 0.75)]
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        LedgerEvent::AleCurveComputed { method, .. } if method == "pdp"
    )));
    // Every event line reads back to the event that wrote it.
    let lines: Vec<&str> = text.lines().skip(1).collect();
    let rendered: Vec<String> = events.iter().map(LedgerEvent::to_json_line).collect();
    assert_eq!(rendered, lines);

    // The same file feeds the search-observability parser: the declared
    // space and the typed params come back out.
    let search = aml_bench::searchview::parse_search_ledger(&text).unwrap();
    assert_eq!(search.started, 1);
    assert_eq!(search.finished, 1);
    assert_eq!(search.families[0].family, "forest");
    assert_eq!(search.families[0].dims[0].name, "trees");
    assert_eq!(search.families[0].dims[0].visited, 1);

    std::fs::remove_dir_all(&dir).ok();
}
