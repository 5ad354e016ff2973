// Package bench holds the paper's evaluation (§6, Fig. 6(a)–6(p)) as
// tests: each experiment's sweep, restated at small scale and run
// in-process, asserting what the figures claim in counts no schedule can
// move — which algorithm ships less data (DS), and which DS curves rise
// or stay flat. Response-time (PT) claims are not asserted: in one
// process with no network they measure the machine, not the algorithm.
// DESIGN.md §6 lists every claim and the test that checks it. The
// package has no non-test code beyond this comment.
package bench
