package power

// Snapshot support for the power network. A SoC-level fork (see
// soc.Snapshot) restores every SRAM array and DRAM module from its own
// snapshot, so the power layer's restore must rewind the electrical
// bookkeeping WITHOUT driving SetRail into the loads — a load push would
// re-run power-up/decay physics against already-restored contents. The
// restore is therefore a silent field rewind; the next genuine source
// event (probe attach, disconnect, reresolve) flows normally.

// DomainSnapshot is the captured electrical state of one Domain.
type DomainSnapshot struct {
	d     *Domain
	volts float64
	// sources is a copy of the source list: trial code attaches and
	// detaches bench supplies, and an aborted trial must not leak a
	// lingering source into its siblings.
	sources []Source
}

// CaptureSnapshot records the domain's rail voltage and source list.
func (d *Domain) CaptureSnapshot() DomainSnapshot {
	return DomainSnapshot{d: d, volts: d.volts, sources: append([]Source(nil), d.sources...)}
}

// RestoreSnapshot silently rewinds the rail voltage and source list.
// Loads are NOT notified — they are restored by their own snapshots.
func (d *Domain) RestoreSnapshot(s DomainSnapshot) {
	if s.d != d {
		panic("power: RestoreSnapshot onto a different domain")
	}
	d.volts = s.volts
	d.sources = append(d.sources[:0], s.sources...)
}

// PMICSnapshot is the captured state of a PMIC: its input presence. No
// channel changes after AddChannel, so the channels hold nothing to
// capture.
type PMICSnapshot struct {
	p            *PMIC
	inputPresent bool
}

// CaptureSnapshot records the PMIC's input presence.
func (p *PMIC) CaptureSnapshot() PMICSnapshot {
	return PMICSnapshot{p: p, inputPresent: p.inputPresent}
}

// RestoreSnapshot silently rewinds the PMIC: no domain reresolve, no
// load pushes (see the package comment above).
func (p *PMIC) RestoreSnapshot(s PMICSnapshot) {
	if s.p != p {
		panic("power: RestoreSnapshot onto a different PMIC")
	}
	p.inputPresent = s.inputPresent
}
