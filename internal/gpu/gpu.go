// Package gpu models the GPU compute side of the APU: a dispatcher that
// assigns kernel workgroups to Compute Units, and CUs that execute
// wavefront programs (package prog) with coalesced line-granular memory
// traffic through the VIPER caches (package gpucache).
package gpu

import (
	"sort"

	"hscsim/internal/cachearray"
	"hscsim/internal/fsm"
	"hscsim/internal/gpucache"
	"hscsim/internal/memdata"
	"hscsim/internal/prog"
	"hscsim/internal/sim"
	"hscsim/internal/stats"
)

// machine names the wavefront dispatcher's memory-operation dispatch
// machine in the transition tables extracted by internal/proto: which
// cache-complex action each wave op kind triggers. Dispatch is
// stateless, so every event uses the "-" state.
const machine = "gpu.wave"

// Config sets GPU dispatch parameters.
type Config struct {
	NumCUs int
	// MaxWGPerCU bounds concurrently resident workgroups per CU
	// (barriers require whole workgroups resident).
	MaxWGPerCU int
	// ClockNum/ClockDen convert GPU cycles to ticks: the paper's APU
	// runs the CPU at 3.5 GHz and the GPU at 1.1 GHz (Table III), so one
	// GPU cycle is 35/11 ticks.
	ClockNum, ClockDen uint64
	// IFetchEvery issues an SQC instruction fetch every N wave ops.
	IFetchEvery int
}

// DefaultConfig matches Table III.
func DefaultConfig() Config {
	return Config{NumCUs: 8, MaxWGPerCU: 2, ClockNum: 35, ClockDen: 11, IFetchEvery: 16}
}

// Dispatcher queues kernels and runs them one at a time (CHAI kernels
// launch serially per iteration), spreading workgroups across CUs.
type Dispatcher struct {
	engine *sim.Engine
	caches *gpucache.GPUCaches
	fm     *memdata.Memory
	cfg    Config

	queue  []*launch
	active *launch

	// rec records fired dispatch transitions for the static-vs-dynamic
	// cross-check (cmd/hscproto); nil (the default) disables recording.
	rec *fsm.Recorder

	kernels   *stats.Counter
	waveOps   *stats.Counter
	wavesDone *stats.Counter
}

type launch struct {
	k *prog.Kernel
	h *prog.KernelHandle

	wavesLeft  int
	cuQueues   [][]int // per-CU list of assigned workgroups
	cuActive   []int   // workgroups currently resident per CU
	cuWaveDone []int   // per-CU finished-wave count (workgroup retirement)
	barriers   map[int]*barrier
	waves      []*waveRun // every started wavefront, for Abort
}

type barrier struct {
	arrived int
	release []*waveRun
}

type waveRun struct {
	d    *Dispatcher
	l    *launch
	w    *prog.Wave
	cu   int
	opsN int
}

// New creates the dispatcher.
func New(engine *sim.Engine, caches *gpucache.GPUCaches, fm *memdata.Memory,
	cfg Config, sc *stats.Scope) *Dispatcher {
	return &Dispatcher{
		engine: engine, caches: caches, fm: fm, cfg: cfg,
		kernels:   sc.Counter("kernels"),
		waveOps:   sc.Counter("wave_ops"),
		wavesDone: sc.Counter("waves_done"),
	}
}

// SetRecorder attaches (or, with nil, detaches) a transition recorder.
func (d *Dispatcher) SetRecorder(r *fsm.Recorder) { d.rec = r }

// Launch implements cpu.Dispatcher.
func (d *Dispatcher) Launch(k *prog.Kernel, h *prog.KernelHandle) {
	d.queue = append(d.queue, &launch{k: k, h: h})
	if d.active == nil {
		d.startNext()
	}
}

// Abort stops the running kernel's unfinished wavefronts, releasing the
// coroutines a run that ends early (MaxTicks, interrupt, deadlock)
// would otherwise strand. Only the active launch can have started
// waves: a kernel finishes only after all of its waves have.
func (d *Dispatcher) Abort() {
	if d.active == nil {
		return
	}
	for _, wr := range d.active.waves {
		wr.w.Abort()
	}
}

// Busy reports whether a kernel is running or queued.
func (d *Dispatcher) Busy() bool { return d.active != nil || len(d.queue) > 0 }

func (d *Dispatcher) startNext() {
	if len(d.queue) == 0 {
		d.active = nil
		return
	}
	l := d.queue[0]
	d.queue = d.queue[1:]
	d.active = l
	d.kernels.Inc()

	l.wavesLeft = l.k.Workgroups * l.k.WavesPerWG
	l.cuQueues = make([][]int, d.cfg.NumCUs)
	l.cuActive = make([]int, d.cfg.NumCUs)
	l.barriers = make(map[int]*barrier)
	for wg := 0; wg < l.k.Workgroups; wg++ {
		cu := wg % d.cfg.NumCUs
		l.cuQueues[cu] = append(l.cuQueues[cu], wg)
	}
	// Kernel-launch acquire: invalidate the TCPs (VIPER acquire).
	for cu := 0; cu < d.cfg.NumCUs; cu++ {
		d.caches.AcquireInvalidate(cu)
		d.fillCU(l, cu)
	}
	if l.wavesLeft == 0 { // empty grid
		d.finish(l)
	}
}

func (d *Dispatcher) fillCU(l *launch, cu int) {
	for l.cuActive[cu] < d.cfg.MaxWGPerCU && len(l.cuQueues[cu]) > 0 {
		wg := l.cuQueues[cu][0]
		l.cuQueues[cu] = l.cuQueues[cu][1:]
		l.cuActive[cu]++
		d.startWorkgroup(l, cu, wg)
	}
}

func (d *Dispatcher) startWorkgroup(l *launch, cu, wg int) {
	for lane := 0; lane < l.k.WavesPerWG; lane++ {
		global := wg*l.k.WavesPerWG + lane
		wr := &waveRun{d: d, l: l, cu: cu}
		wr.w = prog.NewWave(wg, lane, global, l.k.Fn)
		l.waves = append(l.waves, wr)
		d.engine.Schedule(0, wr.step)
	}
}

// gpuTicks converts GPU cycles to engine ticks (rounded up).
func (d *Dispatcher) gpuTicks(c uint64) sim.Tick {
	if c == 0 {
		c = 1
	}
	return sim.Tick((c*d.cfg.ClockNum + d.cfg.ClockDen - 1) / d.cfg.ClockDen)
}

func (wr *waveRun) step() {
	op, ok := wr.w.NextOp()
	if !ok {
		wr.d.waveDone(wr)
		return
	}
	wr.d.waveOps.Inc()
	wr.opsN++
	if wr.d.cfg.IFetchEvery > 0 && wr.opsN%wr.d.cfg.IFetchEvery == 1 {
		code := wr.l.k.CodeAddr + memdata.Addr((wr.opsN/wr.d.cfg.IFetchEvery)%64*64)
		wr.d.caches.IFetch(wr.cu, cachearray.LineAddr(code>>6), func() { wr.exec(op) })
		return
	}
	wr.exec(op)
}

func (wr *waveRun) exec(op prog.WaveOp) {
	d := wr.d
	switch op.Kind {
	case prog.WaveVecLoad:
		d.rec.Record(machine, "-", "VecLoad", "-") //proto:actions coalesce, TCP/TCC read per line
		lines := coalesce(op.Addrs)
		remaining := len(lines)
		for _, ln := range lines {
			d.caches.ReadLine(wr.cu, ln, func() {
				remaining--
				if remaining == 0 {
					vals := make([]uint64, len(op.Addrs))
					for i, a := range op.Addrs {
						vals[i] = d.fm.Read(a)
					}
					wr.resume(vals)
				}
			})
		}

	case prog.WaveVecStore:
		d.rec.Record(machine, "-", "VecStore", "-") //proto:actions coalesce, TCC write per line
		lines := coalesce(op.Addrs)
		remaining := len(lines)
		for _, ln := range lines {
			d.caches.WriteLine(wr.cu, ln, func() {
				remaining--
				if remaining == 0 {
					for i, a := range op.Addrs {
						d.fm.Write(a, op.Values[i])
					}
					wr.resume(nil)
				}
			})
		}

	case prog.WaveAtomicSys:
		d.rec.Record(machine, "-", "AtomicSys", "-") //proto:actions system-scope atomic at directory
		d.caches.AtomicSystem(wr.cu, cachearray.LineAddr(op.Addr>>6), op.Addr,
			op.AOp, op.Operand, op.Compare, func(old uint64) { wr.resume([]uint64{old}) })

	case prog.WaveAtomicDev:
		d.rec.Record(machine, "-", "AtomicDev", "-") //proto:actions device-scope atomic at TCC
		d.caches.AtomicDevice(wr.cu, cachearray.LineAddr(op.Addr>>6), op.Addr,
			op.AOp, op.Operand, op.Compare, func(old uint64) { wr.resume([]uint64{old}) })

	case prog.WaveBarrier:
		d.rec.Record(machine, "-", "Barrier", "-") //proto:actions join workgroup barrier
		l := wr.l
		b := l.barriers[wr.w.WG]
		if b == nil {
			b = &barrier{}
			l.barriers[wr.w.WG] = b
		}
		b.arrived++
		b.release = append(b.release, wr)
		if b.arrived == l.k.WavesPerWG {
			delete(l.barriers, wr.w.WG)
			for _, r := range b.release {
				rr := r
				d.engine.Schedule(d.gpuTicks(4), func() { rr.resume(nil) })
			}
		}

	case prog.WaveCompute:
		d.rec.Record(machine, "-", "Compute", "-") //proto:actions occupy ALU for op.Cycles
		d.engine.Schedule(d.gpuTicks(op.Cycles), func() { wr.resume(nil) })
	}
}

func (wr *waveRun) resume(vals []uint64) {
	wr.w.Complete(vals)
	wr.step()
}

func (d *Dispatcher) waveDone(wr *waveRun) {
	d.wavesDone.Inc()
	l := wr.l
	l.wavesLeft--
	// Track workgroup retirement: when every wave of the CU's resident
	// workgroups has finished we can bring in the next workgroup. We
	// retire at wave granularity: a workgroup slot frees after
	// WavesPerWG waves of that CU finish.
	wgWaves := l.k.WavesPerWG
	if wgDone := wr.countCUWaveDone(wgWaves); wgDone {
		l.cuActive[wr.cu]--
		d.fillCU(l, wr.cu)
	}
	if l.wavesLeft == 0 {
		d.finish(l)
	}
}

// countCUWaveDone tracks per-CU finished waves; every WavesPerWG-th
// completion frees one workgroup slot.
func (wr *waveRun) countCUWaveDone(wavesPerWG int) bool {
	l := wr.l
	if l.cuWaveDone == nil {
		l.cuWaveDone = make([]int, len(l.cuActive))
	}
	l.cuWaveDone[wr.cu]++
	return l.cuWaveDone[wr.cu]%wavesPerWG == 0
}

func (d *Dispatcher) finish(l *launch) {
	// Kernel-end release: flush (WB mode) and fence at the directory,
	// then signal the host.
	d.caches.ReleaseFlush(func() {
		l.h.CompleteKernel()
		d.startNext()
	})
}

// coalesce deduplicates word addresses into sorted line addresses (the
// per-wavefront coalescer).
func coalesce(addrs []memdata.Addr) []cachearray.LineAddr {
	seen := make(map[cachearray.LineAddr]struct{}, len(addrs))
	out := make([]cachearray.LineAddr, 0, len(addrs))
	for _, a := range addrs {
		ln := cachearray.LineAddr(a >> 6)
		if _, dup := seen[ln]; !dup {
			seen[ln] = struct{}{}
			out = append(out, ln)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
