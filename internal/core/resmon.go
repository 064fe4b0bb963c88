package core

import (
	"fmt"

	"rdasched/internal/pp"
)

// ResourceMonitor is the resource monitor of §3.2: it "maintains a
// real-time estimation by saving the resource demands of all active
// progress periods" in a table with one entry per tracked resource, kept
// current as periods begin and end.
type ResourceMonitor struct {
	capacity [pp.NumResources]pp.Bytes
	usage    [pp.NumResources]pp.Bytes
	peak     [pp.NumResources]pp.Bytes
}

// NewResourceMonitor returns a monitor with the given LLC capacity and
// unlimited other resources (a zero capacity entry is treated as
// untracked).
func NewResourceMonitor(llc pp.Bytes) *ResourceMonitor {
	rm := &ResourceMonitor{}
	rm.capacity[pp.ResourceLLC] = llc
	return rm
}

// SetCapacity configures a resource's maximum.
func (rm *ResourceMonitor) SetCapacity(r pp.Resource, c pp.Bytes) {
	if !r.Valid() {
		panic(fmt.Sprintf("core: set capacity of invalid resource %d", int(r)))
	}
	rm.capacity[r] = c
}

// Capacity returns a resource's maximum.
func (rm *ResourceMonitor) Capacity(r pp.Resource) pp.Bytes { return rm.capacity[r] }

// Usage returns the current load estimation for a resource.
func (rm *ResourceMonitor) Usage(r pp.Resource) pp.Bytes { return rm.usage[r] }

// Peak returns the maximum load ever recorded for a resource.
func (rm *ResourceMonitor) Peak(r pp.Resource) pp.Bytes { return rm.peak[r] }

// Increment adds a period's demand to the load table. A malformed demand
// returns ErrInvalidDemand and leaves the table untouched: demands arrive
// from applications, so rejecting them is admission policy, not a crash.
func (rm *ResourceMonitor) Increment(d pp.Demand) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidDemand, err)
	}
	rm.usage[d.Resource] += d.WorkingSet
	if rm.usage[d.Resource] > rm.peak[d.Resource] {
		rm.peak[d.Resource] = rm.usage[d.Resource]
	}
	return nil
}

// Decrement removes a completed period's demand. A decrement below zero
// load returns ErrLoadUnderflow with the table untouched; the scheduler's
// internal call sites turn that into a panic (an End without a Begin on
// the scheduler's own paths is an accounting bug), while external callers
// replaying untrusted traces can handle it.
func (rm *ResourceMonitor) Decrement(d pp.Demand) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidDemand, err)
	}
	if rm.usage[d.Resource] < d.WorkingSet {
		return fmt.Errorf("%w: %s: %s - %s", ErrLoadUnderflow,
			d.Resource, rm.usage[d.Resource], d.WorkingSet)
	}
	rm.usage[d.Resource] -= d.WorkingSet
	return nil
}

func (rm *ResourceMonitor) String() string {
	return fmt.Sprintf("LLC %s/%s", rm.usage[pp.ResourceLLC], rm.capacity[pp.ResourceLLC])
}
