// Package attack implements the Rowhammer attack patterns of the paper's
// threat model (Section II-A) and a security-audit harness that builds a
// single DRAM bank (dram.NewBank, never the whole device) and drives it at
// the attacker's maximum activation rate, with the bank's per-row damage
// ledger checking whether any row ever accumulates the threshold number of
// neighbour activations without an intervening refresh.
//
// Patterns include the classic single- and double-sided hammers, the
// (ABCD)^K circular pattern that is optimal against window trackers
// (Appendix A), Half-Double-style transitive attacks that weaponise victim
// refreshes (Section V-A), many-sided TRRespass-style sweeps, and a
// FIFO-flooding decoy pattern aimed at buffered trackers.
package attack
