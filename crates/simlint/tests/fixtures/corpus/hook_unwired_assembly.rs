// An assembly that never wires failure detection: nothing in this file
// sweeps leases (`check_health`) or runs the shared lease tick, so a
// crashed worker keeps its in-flight work until the client gives up.
impl Assembly for Bare {
    type Config = BareConfig;

    fn build(spec: WorkloadSpec, cfg: &BareConfig, res: ResilienceConfig) -> Bare {
        Bare::new(spec, *cfg, res)
    }
}
