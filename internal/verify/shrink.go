package verify

// Shrink reduces a failing (machine, program) pair to a locally minimal
// one: greedy descent over a fixed candidate list, accepting any
// transformation after which fails still reports true, iterated to a
// fixpoint. The candidate order matters for repro quality — structural
// program features first (they dominate readability of the generated
// source), then program size, then machine scale.
func Shrink(ms MachineSpec, ps ProgramSpec, fails func(MachineSpec, ProgramSpec) bool) (MachineSpec, ProgramSpec) {
	type candidate func(*MachineSpec, *ProgramSpec) bool // returns false when inapplicable

	halve := func(v *int, floor int) bool {
		if *v <= floor {
			return false
		}
		*v /= 2
		if *v < floor {
			*v = floor
		}
		return true
	}
	dec := func(v *int, floor int) bool {
		if *v <= floor {
			return false
		}
		*v--
		return true
	}

	candidates := []candidate{
		// Program structure.
		func(m *MachineSpec, p *ProgramSpec) bool {
			if !p.Gen.Recursion {
				return false
			}
			p.Gen.Recursion = false
			p.Gen.MaxRecDepth = 0
			return true
		},
		func(m *MachineSpec, p *ProgramSpec) bool {
			if !p.Gen.Aliasing {
				return false
			}
			p.Gen.Aliasing = false
			return true
		},
		func(m *MachineSpec, p *ProgramSpec) bool {
			if !p.Gen.Loops {
				return false
			}
			p.Gen.Loops = false
			return true
		},
		func(m *MachineSpec, p *ProgramSpec) bool { return dec(&p.Gen.WindowLadder, 0) },
		func(m *MachineSpec, p *ProgramSpec) bool { return dec(&p.Gen.Helpers, 0) },
		func(m *MachineSpec, p *ProgramSpec) bool { return dec(&p.Gen.MaxRecDepth, 1) },
		// Program size.
		func(m *MachineSpec, p *ProgramSpec) bool { return halve(&p.Gen.Blocks, 1) },
		func(m *MachineSpec, p *ProgramSpec) bool { return dec(&p.Gen.Blocks, 1) },
		// Machine scale. Thread reduction regenerates fewer programs from
		// the same seed, so the failure must survive the re-generation.
		func(m *MachineSpec, p *ProgramSpec) bool { return halve(&m.Threads, 1) },
		func(m *MachineSpec, p *ProgramSpec) bool { return halve(&m.Width, 1) },
		func(m *MachineSpec, p *ProgramSpec) bool { return dec(&m.Width, 1) },
		func(m *MachineSpec, p *ProgramSpec) bool { return halve(&m.ROBSize, 8) },
		func(m *MachineSpec, p *ProgramSpec) bool { return halve(&m.IQSize, 4) },
		func(m *MachineSpec, p *ProgramSpec) bool { return halve(&m.LSQSize, 4) },
	}

	for changed := true; changed; {
		changed = false
		for _, c := range candidates {
			for {
				m, p := ms, ps
				if !c(&m, &p) {
					break
				}
				if m != ms && !m.Constructs() {
					break
				}
				if !fails(m, p) {
					break
				}
				ms, ps = m, p
				changed = true
			}
		}
	}
	return ms, ps
}
