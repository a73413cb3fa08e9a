// Package fault provides deterministic, seed-driven fault injection for the
// simulator's Rowhammer-mitigation path.
//
// The paper's security argument — like that of the PRAC/Panopticon-style
// per-row trackers it compares against — assumes the in-DRAM tracker state
// and the delivery of mitigation commands are fault-free: every demand
// activation is observed, observed row addresses are exact, and every
// nominated aggressor actually receives its victim refreshes. The injectors
// here let experiments stress each of those assumptions independently:
//
//   - ActMissProb drops tracker observations (the counter update is lost);
//   - TrackerBitFlipProb corrupts the observed row address by one bit
//     (a bit-flip in the tracker's row register or counter tag);
//   - DropMitigationProb loses the tracker's nomination after selection
//     (the RFM / mitigation command never reaches the victim refreshes);
//   - DelayMitigationProb defers a nomination to the next mitigation slot
//     (a tardy mitigation, one window late).
//
// All injectors draw from their own PRNG seeded by Config.Seed, so a faulty
// run is exactly as reproducible as a clean one; fault configuration is part
// of sim.Config and therefore of its memoization key.
//
// The package doubles as the experiment engine's chaos harness: PanicAfterActs
// and ChaosProb deliberately panic simulation jobs so tests (and the CI chaos
// job) can prove the runner isolates per-job failures instead of tearing down
// a whole sweep.
//
// Each injector is also registered by name in the package's plugin registry
// (see registry.go): FromSpec maps a spec list such as
// "act-miss(p=0.01),drop-mitigation(p=0.1)" onto the Config fields above,
// which is how the -faults and -fault-seed flags of autorfm-sim and
// autorfm-bench assemble a fault model. Because named injectors write the same keyed Config, a
// registry-selected fault set is byte-identical to one set field by field.
package fault
