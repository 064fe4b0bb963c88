package core

import "errors"

// Sentinel errors for the public admission path. The kernel prototype
// cannot afford to oops because an application passed a garbage demand to
// pp_begin or dropped a pp_end; likewise this extension returns (or
// counts) errors for every externally triggerable misuse and reserves
// panics for internal accounting invariants — a load-table underflow
// reached through the scheduler's own bookkeeping is a bug in this
// package, never a legitimate runtime state.
var (
	// ErrInvalidDemand marks a malformed external demand: unknown
	// resource, negative or zero working set, or invalid reuse level.
	// The scheduler refuses to track such periods and lets them run under
	// the stock scheduler (counted in Stats.Rejected).
	ErrInvalidDemand = errors.New("core: invalid demand")
	// ErrLoadUnderflow reports a Decrement below zero load. On the
	// scheduler's internal paths this is converted back into a panic
	// (accounting bug); external callers of ResourceMonitor get the
	// error.
	ErrLoadUnderflow = errors.New("core: resource load underflow")
	// ErrInvalidDomainConfig marks a DomainConfig NewDomainSet refuses to
	// build: a non-positive domain count or a negative steal age (use
	// DisableSteal to turn the steal pass off).
	ErrInvalidDomainConfig = errors.New("core: invalid domain config")
	// ErrInvalidDomain marks a domain index outside the set, or a
	// recovery operation on a set that cannot perform it (fault injection
	// without EnableRecovery, or on a single-domain set with no surviving
	// shard to evacuate to).
	ErrInvalidDomain = errors.New("core: invalid domain")
	// ErrInvalidRecoveryConfig marks a RecoveryConfig EnableRecovery
	// refuses: an unknown mode, a negative retry budget or interval, or a
	// retry budget with no backoff base.
	ErrInvalidRecoveryConfig = errors.New("core: invalid recovery config")
)
