package compass

import (
	"fmt"

	"compass/internal/dsm"
	"compass/internal/frontend"
	"compass/internal/isa"
	"compass/internal/machine"
	"compass/internal/mem"
	"compass/internal/osserver"
	"compass/internal/simsync"
)

// RunSORDSM runs the SOR kernel on a software-DSM cluster (the paper's
// third target class, §5): each worker is a cluster node; the grid lives
// in a DSM region whose pages migrate and replicate through IVY-style
// page faults, while per-access traffic stays node-local. Compare with
// RunSOR on ArchCCNUMA for the hardware-vs-software coherence trade.
func RunSORDSM(cfg Config, w SORConfig) Result {
	cfg.CPUs = w.Procs // one node per worker
	proto := dsm.New(dsm.DefaultConfig(w.Procs))

	n := w.N
	gridBytes := uint32(n*n*8 + mem.PageSize) // + page for the barrier
	gridBytes = (gridBytes + mem.PageMask) &^ uint32(mem.PageMask)

	res := runOnce(cfg, "SOR/dsm", func(m *machine.Machine) {
		for i := 0; i < w.Procs; i++ {
			i := i
			m.SpawnConnected(fmt.Sprintf("node%d", i), func(p *frontend.Proc) {
				os := osserver.For(p)
				segID, err := os.ShmGet(0xD50A, gridBytes)
				if err != nil {
					panic(err)
				}
				base, err := os.ShmAt(segID)
				if err != nil {
					panic(err)
				}
				region := dsm.NewRegion(m.Sim, proto, base+mem.PageSize, gridBytes-mem.PageSize)
				view := region.NewView(i)
				bar := &simsync.Barrier{Addr: base, N: uint64(w.Procs)}

				cell := func(r, c int) mem.VirtAddr {
					return region.Base + mem.VirtAddr((r*n+c)*8)
				}
				lo := 1 + (n-2)*i/w.Procs
				hi := 1 + (n-2)*(i+1)/w.Procs
				for it := 0; it < w.Iters; it++ {
					for r := lo; r < hi; r++ {
						// Row-granular rights checks (pages hold whole rows
						// when n*8 <= PageSize), then the stencil traffic.
						view.LoadRange(p, cell(r-1, 1), (n-2)*8)
						view.LoadRange(p, cell(r+1, 1), (n-2)*8)
						view.StoreRange(p, cell(r, 1), (n-2)*8)
						p.Compute(isa.InstrMix{FPAdd: uint64(3 * (n - 2)), FPMul: uint64(n - 2), Int: uint64(8 * (n - 2)), Branch: uint64(n - 2)})
					}
					bar.Wait(p)
				}
			})
		}
	})
	proto.AddCounters(res.Counters)
	res.Extra["dsm.pagemoves"] = float64(proto.PageMoves)
	res.Extra["dsm.faults"] = float64(proto.ReadFaults + proto.WriteFaults)
	return res
}
