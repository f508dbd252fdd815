package protocheck

import "fmt"

// The directory's abstract steps: activation of an outstanding request
// (one transaction per line, mirroring Directory.txns), probe sending,
// responding (with the §III-A early-dirty-response short-cut), and
// completion. Vic/Flush service is a single atomic step, like the
// concrete respondAndFinish path.

func dirSteps(sp *stepper, s state, cfg ModelConfig) {
	if s.Dir.Busy == '-' {
		dirActivations(sp, s, cfg)
		return
	}
	switch s.Dir.Busy {
	case 'V':
		dirVicService(sp, s, cfg)
	case 'E':
		if drained(s) {
			ns := s
			dealloc(&ns)
			clearTxn(&ns)
			sp.add(ns, "directory completes back-invalidation, deallocates entry")
		}
	default:
		dirProbeRespond(sp, s, cfg)
	}
}

// flushArms are the release-flush arms of dir.stateless and
// dir.tracked, indexed by whether the mode tracks.
var flushArms = [2]armID{
	internArm(machStateless, "-", "Flush", "-"),
	internArm(machTracked, "-", "Flush", "-"),
}

// activations are the directory's queued-request kinds served from the
// saturating counters, in activation order.
var activations = [4]struct {
	kind byte
	desc string
}{
	{'W', "directory activates tcc WT"},
	{'A', "directory activates tcc Atomic"},
	{'r', "directory activates DMARd"},
	{'w', "directory activates DMAWr"},
}

// queueCount returns the saturating counter behind an activation kind.
func queueCount(s *state, kind byte) *byte {
	switch kind {
	case 'W':
		return &s.TCC.Wt
	case 'A':
		return &s.TCC.At
	case 'r':
		return &s.DMA.Rd
	default: // 'w'
		return &s.DMA.Wr
	}
}

// dirActivations starts one of the line's outstanding requests. The
// concrete directory serializes per line (pend FIFO); the model picks
// nondeterministically, a superset of any queue order.
func dirActivations(sp *stepper, s state, cfg ModelConfig) {
	if !drained(s) {
		panic(fmt.Sprintf("model bug: probes in flight with idle directory in %s", s))
	}
	for i := 0; i < 2; i++ {
		if s.Ag[i].MissP == 'o' {
			ns := s
			ns.Ag[i].MissP = 'a'
			ns.Dir.Busy = 'R'
			sp.add(ns, cpuDescs[i].activateMiss[missIdx(s.Ag[i].Miss)])
		}
		if s.Ag[i].WBPh == 'o' {
			ns := s
			ns.Ag[i].WBPh = 'a'
			ns.Dir.Busy = 'V'
			sp.add(ns, cpuDescs[i].activateVictim)
		}
	}
	if s.TCC.MissP == 'o' {
		ns := s
		ns.TCC.MissP = 'a'
		ns.Dir.Busy = 'T'
		sp.add(ns, "directory activates tcc RdBlk")
	}
	// Release flush: touches no line state, so issue, service and the
	// FlushAck collapse into one atomic (self-loop) step.
	sp.addArmInject(s, flushArms[boolIdx(cfg.Mode != ModeStateless)], "directory acks release flush")
	sp.addArmInject(s, tccArms.flushAck, "tcc completes release flush")

	for _, q := range activations {
		count := *queueCount(&s, q.kind)
		if count != '1' {
			continue
		}
		for _, rest := range satDec(count) {
			ns := s
			*queueCount(&ns, q.kind) = rest
			ns.Dir.Busy = q.kind
			// Taking one message from a saturated "at least one" counter
			// either drains it (progress) or re-asserts that more work is
			// outstanding — that branch is an environment injection, or
			// the drain graph would loop on servicing phantom messages.
			if rest == '1' {
				sp.addInject(ns, q.desc)
			} else {
				sp.add(ns, q.desc)
			}
		}
	}

	// Backward invalidation: directory-cache pressure from other lines
	// may evict this line's entry at any quiescent moment. Probes go out
	// in the same step (evictEntry sends synchronously).
	if cfg.Mode != ModeStateless && s.Dir.Entry != '-' {
		p := invTargetsM(s, cfg, -1, false)
		if p.empty() {
			ns := s
			dealloc(&ns)
			sp.addInject(ns, "directory evicts untargeted entry (back-invalidation, no probes)")
		} else {
			ns := s
			sendPlan(&ns, p)
			ns.Dir.Busy = 'E'
			ns.Dir.Prbd = true
			sp.addInject(ns, "directory evicts entry, sends back-invalidation probes")
		}
	}
}

// sendPlan marks every planned probe in flight.
func sendPlan(s *state, p probePlan) {
	for j := 0; j < 2; j++ {
		if p.cpu[j] {
			if s.Ag[j].Prb != '-' {
				panic(fmt.Sprintf("model bug: overlapping probes to cpu%d in %s", j, *s))
			}
			s.Ag[j].Prb = p.kind
		}
	}
	if p.tcc {
		if s.TCC.Prb != '-' {
			panic(fmt.Sprintf("model bug: overlapping probes to tcc in %s", *s))
		}
		s.TCC.Prb = p.kind
	}
}

// dirProbeRespond handles kinds R/T/W/A/r/w: send the probe wave, then
// respond once the acks drain (or early, §III-A: EDR with a dirty
// downgrade ack in hand), then complete.
func dirProbeRespond(sp *stepper, s state, cfg ModelConfig) {
	dr := drained(s)

	if !s.Dir.Rspd {
		// The probe plan is only defined pre-respond (the requester mark
		// turns into the in-flight grant at respond time).
		p := planProbes(s, cfg)
		if !p.empty() && !s.Dir.Prbd {
			ns := s
			sendPlan(&ns, p)
			ns.Dir.Prbd = true
			sp.add(ns, "directory sends probes")
			return // probes strictly precede the response
		}
		// BugSkipAck drops the drain requirement: the response races
		// the probes it should have waited for.
		canRespond := p.empty() || dr ||
			(cfg.EDR && p.kind == 'd' && s.Dir.GotM) ||
			cfg.Bug == BugSkipAck
		if canRespond {
			switch s.Dir.Busy {
			case 'R':
				dirRespondCPURead(sp, s, cfg)
			case 'T':
				dirRespondTCCRead(sp, s, cfg)
			case 'r':
				dirRespondDMARead(sp, s, cfg)
			case 'W', 'A', 'w':
				if dr { // no EDR for invalidating writes: full drain required
					dirServeWrite(sp, s, cfg)
				}
			}
		}
	}

	// Completion (kinds with a separate respond phase). CPU reads hold
	// the transaction until the requester's Unblock arrives.
	if s.Dir.Rspd && dr {
		switch s.Dir.Busy {
		case 'R':
			for i := 0; i < 2; i++ {
				if s.Ag[i].Unb {
					ns := s
					ns.Ag[i].Unb = false
					clearTxn(&ns)
					sp.add(ns, cpuDescs[i].consumeUnblock)
				}
			}
		case 'T', 'r':
			ns := s
			clearTxn(&ns)
			sp.add(ns, "directory completes transaction")
		}
	}
}

// cpuReadArms are the directory arms of a CPU read, indexed by the
// miss kind (missIdx); the tracked ones are named by entry transition.
var cpuReadArms = struct {
	stateless, iToO, iToS, sToO, sToS, oToS, oToO [3]armID
}{
	stateless: byMiss(machStateless, "-", "-"),
	iToO:      byMiss(machTracked, "I", "O"),
	iToS:      byMiss(machTracked, "I", "S"),
	sToO:      byMiss(machTracked, "S", "O"),
	sToS:      byMiss(machTracked, "S", "S"),
	oToS:      byMiss(machTracked, "O", "S"),
	oToO:      byMiss(machTracked, "O", "O"),
}

// byMiss interns one arm per CPU miss event, indexed by missIdx.
func byMiss(machine, st, nx string) (t [3]armID) {
	for _, k := range []byte("rsm") {
		t[missIdx(k)] = internArm(machine, st, missEvent(k), nx)
	}
	return t
}

// dirRespondCPURead responds to the active RdBlk/RdBlkS/RdBlkM and
// applies the tracked entry update (the concrete t.onData runs at
// respond time).
func dirRespondCPURead(sp *stepper, s state, cfg ModelConfig) {
	req := reqIdx(s, func(a agent) byte { return a.MissP })
	k := s.Ag[req].Miss
	ki := missIdx(k)
	ns := s
	ns.Dir.Rspd = true

	if cfg.Mode == ModeStateless {
		grant := byte('M')
		switch k {
		case 's':
			grant = 'S'
		case 'r':
			grant = 'E'
			if s.Dir.GotD {
				grant = 'S'
			}
		}
		ns.Ag[req].MissP = grant
		sp.addArm(ns, cpuReadArms.stateless[ki], cpuDescs[req].grant[grantIdx(grant)])
		return
	}

	// Tracked: grant, entry update and arm depend on the entry state.
	// RdBlkS always grants Shared; only RdBlk on a fresh entry may be
	// granted Exclusive straight from memory (forceShared elsewhere).
	grant := byte('M')
	if k != 'm' {
		grant = 'S'
		if k == 'r' && s.Dir.Entry == '-' && !s.Dir.GotD {
			grant = 'E'
		}
	}
	ns.Ag[req].MissP = grant
	desc := &cpuDescs[req].grantTracked[grantIdx(grant)]

	switch s.Dir.Entry {
	case '-':
		if k == 'm' || k == 'r' {
			ns.Dir.Entry = 'O'
			ns.Ag[req].Own = true
			sp.addArm(ns, cpuReadArms.iToO[ki], desc[noteTracksOwner])
		} else {
			ns.Dir.Entry = 'S'
			ns.Ag[req].Shr = true
			sp.addArm(ns, cpuReadArms.iToS[ki], desc[noteAddsSharer])
		}
	case 'S':
		if k == 'm' {
			clearSharers(&ns)
			ns.Dir.Entry = 'O'
			ns.Ag[req].Own = true
			sp.addArm(ns, cpuReadArms.sToO[ki], desc[noteInvSharers])
		} else {
			ns.Ag[req].Shr = true
			sp.addArm(ns, cpuReadArms.sToS[ki], desc[noteAddsSharer])
		}
	case 'O':
		owner := ownerIdx(s)
		switch {
		case k != 'm' && owner == req:
			// Owner re-read (footnote c/d): entry to S, requester is the
			// sole sharer.
			ns.Ag[req].Own = false
			clearSharers(&ns)
			ns.Dir.Entry = 'S'
			ns.Ag[req].Shr = true
			sp.addArm(ns, cpuReadArms.oToS[ki], desc[noteOwnerReRead])
		case k != 'm':
			if s.Dir.GotM {
				// Owner downgraded M→O: dirty sharers (footnote h).
				ns.Ag[req].Shr = true
				sp.addArm(ns, cpuReadArms.oToO[ki], desc[noteOwnerMO])
			} else {
				// Owner held clean Exclusive; all Shared now.
				ns.Ag[owner].Own = false
				ns.Dir.Entry = 'S'
				ns.Ag[owner].Shr = true
				ns.Ag[req].Shr = true
				sp.addArm(ns, cpuReadArms.oToS[ki], desc[noteOwnerES])
			}
		case owner == req:
			// Upgrade: sharers were invalidated; ownership unchanged.
			clearSharers(&ns)
			sp.addArm(ns, cpuReadArms.oToO[ki], desc[noteOwnerUpgrade])
		default:
			ns.Ag[owner].Own = false
			clearSharers(&ns)
			ns.Ag[req].Own = true
			sp.addArm(ns, cpuReadArms.oToO[ki], desc[noteTransfer])
		}
	}
}

// tccReadArms are the directory arms of the TCC's RdBlk.
var tccReadArms = struct{ stateless, iToS, sToS, oToO, oToS armID }{
	stateless: internArm(machStateless, "-", "RdBlk", "-"),
	iToS:      internArm(machTracked, "I", "RdBlk", "S"),
	sToS:      internArm(machTracked, "S", "RdBlk", "S"),
	oToO:      internArm(machTracked, "O", "RdBlk", "O"),
	oToS:      internArm(machTracked, "O", "RdBlk", "S"),
}

// dirRespondTCCRead responds to the TCC's RdBlk (always Shared; the
// TCC ignores grants).
func dirRespondTCCRead(sp *stepper, s state, cfg ModelConfig) {
	ns := s
	ns.Dir.Rspd = true
	ns.TCC.MissP = 'r'
	if cfg.Mode == ModeStateless {
		sp.addArm(ns, tccReadArms.stateless, "directory responds to tcc RdBlk")
		return
	}
	switch s.Dir.Entry {
	case '-':
		ns.Dir.Entry = 'S'
		ns.TCC.Shr = true
		sp.addArm(ns, tccReadArms.iToS, "directory responds to tcc RdBlk, adds tcc sharer")
	case 'S':
		ns.TCC.Shr = true
		sp.addArm(ns, tccReadArms.sToS, "directory responds to tcc RdBlk, adds tcc sharer")
	default: // 'O'
		if s.Dir.GotM {
			ns.TCC.Shr = true
			sp.addArm(ns, tccReadArms.oToO, "directory responds to tcc RdBlk, owner M→O")
		} else {
			owner := ownerIdx(s)
			ns.Ag[owner].Own = false
			ns.Dir.Entry = 'S'
			ns.Ag[owner].Shr = true
			ns.TCC.Shr = true
			sp.addArm(ns, tccReadArms.oToS, "directory responds to tcc RdBlk, owner E→S")
		}
	}
}

// dmaReadArms are the directory arms of a DMARd.
var dmaReadArms = struct{ stateless, iToI, sToS, oToO, oToS armID }{
	stateless: internArm(machStateless, "-", "DMARd", "-"),
	iToI:      internArm(machTracked, "I", "DMARd", "I"),
	sToS:      internArm(machTracked, "S", "DMARd", "S"),
	oToO:      internArm(machTracked, "O", "DMARd", "O"),
	oToS:      internArm(machTracked, "O", "DMARd", "S"),
}

// dirRespondDMARead responds to a DMARd (data only; tracking changes
// limited to the owner's natural downgrade).
func dirRespondDMARead(sp *stepper, s state, cfg ModelConfig) {
	ns := s
	ns.Dir.Rspd = true
	// The Resp to the DMA engine only completes the oldest read — it
	// interacts with nothing else, so its delivery folds into this step.
	emit := func(ns state, arm armID, desc string) {
		sp.addArm(ns, arm, desc)
		sp.addArm(ns, dmaArms.resp, "dma completes oldest read on the line")
	}
	if cfg.Mode == ModeStateless {
		emit(ns, dmaReadArms.stateless, "directory responds to DMARd")
		return
	}
	switch s.Dir.Entry {
	case '-':
		emit(ns, dmaReadArms.iToI, "directory responds to DMARd")
	case 'S':
		emit(ns, dmaReadArms.sToS, "directory responds to DMARd")
	default:
		if s.Dir.GotM {
			emit(ns, dmaReadArms.oToO, "directory responds to DMARd, owner M→O")
		} else {
			owner := ownerIdx(s)
			ns.Ag[owner].Own = false
			ns.Dir.Entry = 'S'
			ns.Ag[owner].Shr = true
			emit(ns, dmaReadArms.oToS, "directory responds to DMARd, owner E→S")
		}
	}
}

// writeService is everything the directory's one-step service of a
// write kind emits: the commit arm and description per directory
// outcome, and the folded completion ack to the writer.
type writeService struct {
	stateless, noHolders armID
	retain, dealloc      [256]armID // tracked, by the entry byte
	descStateless        string
	descNoHolders        string
	descRetain           string
	descDealloc          string
	ack                  armID
	ackDesc              string
}

func mkWriteService(ev string, ack armID, ackDesc string) writeService {
	return writeService{
		stateless:     internArm(machStateless, "-", ev, "-"),
		noHolders:     internArm(machTracked, "I", ev, "I"),
		retain:        armsBy("OS", func(st string) armID { return internArm(machTracked, st, ev, "S") }),
		dealloc:       armsBy("OS", func(st string) armID { return internArm(machTracked, st, ev, "I") }),
		descStateless: "directory commits " + ev + " after invalidations",
		descNoHolders: "directory commits " + ev + " (no holders)",
		descRetain:    "directory commits " + ev + ", retains tcc sharer",
		descDealloc:   "directory commits " + ev + ", deallocates entry",
		ack:           ack,
		ackDesc:       ackDesc,
	}
}

// writeServices are indexed by writeIdx of the directory's busy kind.
var writeServices = [3]writeService{
	mkWriteService("WT", tccArms.wtAck, "tcc retires oldest WT on the line"),
	mkWriteService("Atomic", tccArms.atomicAck, "tcc delivers old value to waiter"),
	mkWriteService("DMAWr", dmaArms.wrAck, "dma completes oldest write on the line"),
}

// writeIdx maps a write kind — W (WT), A (Atomic), w (DMAWr) — onto
// its writeServices index.
func writeIdx(kind byte) int {
	switch kind {
	case 'W':
		return 0
	case 'A':
		return 1
	default: // 'w'
		return 2
	}
}

// dirServeWrite completes WT/Atomic/DMAWr in one step once every ack
// drained: commit, entry update, completion message. (The concrete
// respond and complete coincide here: no unblock, memory always ready.)
func dirServeWrite(sp *stepper, s state, cfg ModelConfig) {
	kind := s.Dir.Busy
	w := &writeServices[writeIdx(kind)]
	ns := s
	clearTxn(&ns)
	// The completion ack to the writer only drains its counter, so its
	// delivery folds into the commit step; emit carries both arm labels.
	emit := func(ns state, arm armID, desc string) {
		sp.addArm(ns, arm, desc)
		sp.addArm(ns, w.ack, w.ackDesc)
	}

	if cfg.Mode == ModeStateless {
		emit(ns, w.stateless, w.descStateless)
		return
	}
	switch e := s.Dir.Entry; e {
	case '-':
		emit(ns, w.noHolders, w.descNoHolders)
	default:
		dealloc(&ns)
		if kind == 'W' {
			// Write-through TCC keeps its copy: retain it as the sole sharer.
			ns.Dir.Entry = 'S'
			ns.TCC.Shr = true
			emit(ns, w.retain[e], w.descRetain)
		} else {
			emit(ns, w.dealloc[e], w.descDealloc)
		}
	}
}

// vicArms are the directory arms of a victim service, indexed by the
// victim's dirtiness (boolIdx) and, for the tracked ones that keep the
// entry state, by the entry byte.
var vicArms = struct {
	stateless, stale   [2]armID
	keep               [2][256]armID
	ownerToS, ownerToI [2]armID
	sharerLeft         armID
}{
	stateless: [2]armID{internArm(machStateless, "-", "VicClean", "-"), internArm(machStateless, "-", "VicDirty", "-")},
	stale:     [2]armID{internArm(machTracked, "I", "VicClean", "I"), internArm(machTracked, "I", "VicDirty", "I")},
	keep: [2][256]armID{
		armsBy("OS", func(e string) armID { return internArm(machTracked, e, "VicClean", e) }),
		armsBy("OS", func(e string) armID { return internArm(machTracked, e, "VicDirty", e) }),
	},
	ownerToS:   [2]armID{internArm(machTracked, "O", "VicClean", "S"), internArm(machTracked, "O", "VicDirty", "S")},
	ownerToI:   [2]armID{internArm(machTracked, "O", "VicClean", "I"), internArm(machTracked, "O", "VicDirty", "I")},
	sharerLeft: internArm(machTracked, "S", "VicClean", "I"),
}

// dirVicService services the active victim atomically (the concrete
// trackedVictim/commitVictim + respondAndFinish path).
func dirVicService(sp *stepper, s state, cfg ModelConfig) {
	req := reqIdx(s, func(a agent) byte { return a.WBPh })
	vicDirty := s.Ag[req].WBDty
	dty := boolIdx(vicDirty)
	ns := s
	ns.Ag[req].WBPh = 'f'
	clearTxn(&ns)

	if cfg.Mode == ModeStateless {
		sp.addArm(ns, vicArms.stateless[dty], cpuDescs[req].vicCommit[dty])
		return
	}

	desc := &cpuDescs[req].vicService[dty]
	e := s.Dir.Entry
	switch {
	case e == '-':
		sp.addArm(ns, vicArms.stale[dty], desc[noteStaleVictim])
	case vicDirty && e == 'O' && s.Ag[req].Own:
		if anySharer(s) {
			ns.Ag[req].Own = false
			ns.Dir.Entry = 'S'
			sp.addArm(ns, vicArms.ownerToS[dty], desc[noteSharersCoherent])
		} else {
			dealloc(&ns)
			sp.addArm(ns, vicArms.ownerToI[dty], desc[noteDeallocates])
		}
	case vicDirty:
		// Superseded dirty victim from a displaced owner: dropped.
		sp.addArm(ns, vicArms.keep[dty][e], desc[noteSuperseded])
	case e == 'O' && s.Ag[req].Own:
		ns.Ag[req].Own = false
		if !anySharer(s) {
			dealloc(&ns)
			sp.addArm(ns, vicArms.ownerToI[dty], desc[noteDeallocates])
		} else {
			ns.Dir.Entry = 'S'
			sp.addArm(ns, vicArms.ownerToS[dty], desc[noteSharersRemain])
		}
	default:
		ns.Ag[req].Shr = false
		if !anySharer(ns) && e == 'S' {
			dealloc(&ns)
			sp.addArm(ns, vicArms.sharerLeft, desc[noteLastSharer])
		} else {
			sp.addArm(ns, vicArms.keep[dty][e], desc[noteRemovesSharer])
		}
	}
}
