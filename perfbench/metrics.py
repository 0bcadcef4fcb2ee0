"""Metric names, units and the prediction table.

``END_TO_END`` is what ``--trace 0`` reports; ``PER_LAYER`` is what
``--trace 1`` reports.  Each per-layer entry names the end-to-end metric
and workload it is expected to move, written down before any
optimisation so a later change can be checked against it.  Everything
runs on one thread, so a layer can save at most its share of self time.
"""

END_TO_END = {
    "tc.lookups_per_s": "1/s",
    "etc.lookups_per_s": "1/s",
    "tc.lookup_p50_us": "us",
    "tc.lookup_p99_us": "us",
    "etc.lookup_p50_us": "us",
    "etc.lookup_p99_us": "us",
    "tc.updates_per_s": "1/s",
    "tc.update_p99_us": "us",
    "etc.updates_per_s": "1/s",
    "etc.update_p99_us": "us",
    "setup_s": "s",
    "tc.mem_mb": "MB",
    "etc.mem_mb": "MB",
}

LOOKUP_PC = "tc.lookups_per_s on probe-cmp"
LOOKUP_ACL = "tc.lookups_per_s on acl-wide"
ETC_ACL = "etc.lookups_per_s on acl-wide"
UPDATE_CHURN = "tc.updates_per_s, tc.update_p99_us on churn-fresh"
SETUP_ACL = "setup_s on acl-wide"

# name -> (unit, what it should move)
PER_LAYER = {
    "host.dict_get_ns": ("ns", "nothing: host calibration"),
    "host.dict_get_spread": ("share", "nothing: host noise across passes"),
    "host.probe_ns": ("ns", "nothing: host speed that times are scaled by"),
    "host.probe_spread": ("share", "nothing: host noise across passes"),
    "host.tc_pass_spread": ("share", "nothing: noise of tc lookup passes"),
    "host.etc_pass_spread": ("share", "nothing: noise of etc lookup passes"),
    "workload.parse_s": ("s", SETUP_ACL),
    "workload.rules": ("count", "nothing: descriptive"),
    "workload.masks": ("count", "nothing: descriptive"),
    "workload.expansion_factor": ("ratio", "nothing: descriptive"),
    "workload.shadowed_duplicates": ("count", "nothing: descriptive"),
    "model.best_rule_ns": ("ns", LOOKUP_PC),
    "tuple_store.probe_ns": ("ns", LOOKUP_PC),
    "tuple_store.marker_touches_per_update": ("count", UPDATE_CHURN),
    "tuple_store.hint_touches_per_update": ("count", UPDATE_CHURN),
    "tuple_store.marker_self_us": ("us", UPDATE_CHURN),
    "tuple_store.entries": ("count", "tc.mem_mb"),
    "tuple_store.owner_links": ("count", "tc.mem_mb"),
    "chain.lookup_self_ns": ("ns", LOOKUP_PC),
    "chain.ns_per_probe": ("ns", LOOKUP_PC),
    "chain.max_tuples": ("count", LOOKUP_PC),
    "chain.insert_tuple_us": ("us", "tc.update_p99_us on churn-fresh"),
    "classifier.lookup_self_ns": ("ns", LOOKUP_ACL),
    "classifier.probes_avg": ("count", "tc.lookups_per_s on probe-cmp "
                                       "and acl-wide"),
    "classifier.probes_max": ("count", "tc.lookups_per_s on probe-cmp "
                                       "and acl-wide"),
    "classifier.probe_bound": ("count", "tc.lookups_per_s on probe-cmp "
                                        "and acl-wide"),
    "classifier.chains": ("count", "tc.lookups_per_s on churn-fresh"),
    "classifier.chains_optimal": ("count", "tc.lookups_per_s on "
                                           "churn-fresh"),
    "classifier.fresh_mask_insert_us": ("us", "tc.update_p99_us on "
                                              "churn-fresh"),
    "classifier.build_s": ("s", "setup_s"),
    "classifier.insert_rules_s": ("s", "setup_s"),
    "classifier.model_mb": ("MB", "nothing: beside tc.mem_mb"),
    "graph.build_graph_s": ("s", SETUP_ACL),
    "graph.min_path_cover_s": ("s", SETUP_ACL),
    "graph.edges": ("count", SETUP_ACL),
    "etc.build_s": ("s", SETUP_ACL),
    "etc.group_chains_s": ("s", SETUP_ACL),
    "etc.head_hit_ratio": ("share", ETC_ACL),
    "etc.probes_avg": ("count", ETC_ACL),
    "etc.local_probes_avg": ("count", ETC_ACL),
    "etc.lookup_self_ns": ("ns", ETC_ACL),
    "etc.groups": ("count", "etc.lookups_per_s on churn-fresh"),
    "etc.groups_bulk": ("count", "etc.lookups_per_s on churn-fresh"),
    "etc.head_entries": ("count", "etc.mem_mb"),
    "etc.local_chains": ("count", "etc.mem_mb"),
    "baselines.tss_lookups_per_s": ("1/s", "nothing: reference for tc "
                                           "against tss"),
    "baselines.tss_probes_avg": ("count", "nothing: reference for tc "
                                          "against tss"),
    "trace.spans": ("count", "nothing: spans recorded"),
    "trace.tc_lookup_overhead_us": ("us", "nothing: traced minus "
                                          "untraced tc lookup"),
    "trace.etc_lookup_overhead_us": ("us", "nothing: traced minus "
                                           "untraced etc lookup"),
}
