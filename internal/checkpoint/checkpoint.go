// Package checkpoint implements warm-start snapshots: the versioned on-disk
// format that captures a quiescent machine's full backend state and rebuilds
// a bit-identical machine from it. A sweep restores N configurations'
// measurement phases from one warm snapshot instead of paying N cold-start
// warmups, and resuming a snapshot and running K more cycles produces
// exactly the stats the uninterrupted run would have produced.
//
// A checkpoint file is a fixed 80-byte header followed by a gob body:
//
//	offset  size  field
//	     0    12  magic "COMPASSCKPT\x00"
//	    12     4  format version (big-endian uint32)
//	    16    32  SHA-256 of the machine configuration
//	    48     8  simulation cycle at save time
//	    56     8  user-mode cycles      } totals across all processes,
//	    64     8  kernel-mode cycles    } duplicated from the body so
//	    72     8  interrupt-mode cycles } inspection never decodes it
//	    80     —  gob(payload{machine.Snapshot, []Section})
//
// The header duplicates exactly what `compassckpt -info` prints, so
// inspecting a multi-megabyte snapshot reads 80 bytes. Sections carry
// host-side workload state (database buffer pool, B-tree roots) that lives
// outside the simulated machine; the machine snapshot never interprets them.
//
// Checkpoints are only taken at a quiescent point — goroutine stacks cannot
// be serialized in Go, so Save refuses while any simulated process is still
// live (see machine.Checkpoint). Configurations whose runtime state is
// unserializable (preemptive scheduling, the syncd daemon) fail with
// ErrNotCheckpointable.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"compass/internal/machine"
	"compass/internal/stats"
)

// Version is the current snapshot format version. Restore rejects any other.
// Version 2 dropped the backend shard count from the machine config and the
// kernel/OS-server syscall and pairing counters from the body, so version-1
// files fail here rather than on a config-hash or gob mismatch.
const Version uint32 = 2

// magic identifies a COMPASS checkpoint file (12 bytes, NUL-padded).
var magic = [12]byte{'C', 'O', 'M', 'P', 'A', 'S', 'S', 'C', 'K', 'P', 'T', 0}

// headerSize is the fixed prefix length before the gob body.
const headerSize = 80

// ErrNotCheckpointable re-exports the machine-level gate for configurations
// whose runtime state cannot be serialized.
var ErrNotCheckpointable = machine.ErrNotCheckpointable

// ErrBadMagic is returned when the stream is not a COMPASS checkpoint.
var ErrBadMagic = errors.New("checkpoint: bad magic (not a COMPASS checkpoint)")

// ErrTruncated is returned when the stream ends before the fixed header is
// complete (empty files included). Wrap-checks with errors.Is.
var ErrTruncated = errors.New("checkpoint: truncated header")

// Section is one named blob of host-side workload state riding along with
// the machine snapshot (e.g. the database buffer pool's functional mirror).
type Section struct {
	Name string
	Data []byte
}

// payload is the gob body of a checkpoint file.
type payload struct {
	Machine  *machine.Snapshot
	Sections []Section
}

// Info is the header of a checkpoint, readable without decoding the body.
type Info struct {
	Version      uint32
	ConfigHash   [32]byte
	Cycle        uint64
	UserCycles   uint64
	KernelCycles uint64
	IntrCycles   uint64
}

// ConfigHash fingerprints a machine configuration. Two machines accept each
// other's snapshots iff their hashes match; the hash covers every Config
// field via its Go-syntax representation. The config is first made
// canonical, as machine.New does, so a caller's config hashes like the
// machine built from it. Host-side hooks (Observe) are normalized away
// too: they carry no machine shape, and %#v would render a function
// pointer's address, which varies between processes.
func ConfigHash(cfg machine.Config) [32]byte {
	cfg = cfg.Canonical()
	cfg.Observe = nil
	return sha256.Sum256([]byte(fmt.Sprintf("%#v", cfg)))
}

// totals sums the per-mode cycle accounts of every saved process plus idle
// interrupt time — the same reduction Sim.TotalAccount performs live.
func totals(s *machine.Snapshot) (user, kern, intr uint64) {
	var a stats.TimeAccount
	for _, p := range s.Sim.Procs {
		var pa stats.TimeAccount
		pa.RestoreSnapshot(p.Account)
		a.Add(&pa)
	}
	var idle stats.TimeAccount
	idle.RestoreSnapshot(s.Sim.IdleIntr)
	a.Add(&idle)
	return a.Cycles(stats.ModeUser), a.Cycles(stats.ModeKernel), a.Cycles(stats.ModeInterrupt)
}

// Save checkpoints a quiescent machine to w.
func Save(w io.Writer, m *machine.Machine) error {
	return SaveSections(w, m, nil)
}

// SaveSections is Save plus host-side workload sections.
func SaveSections(w io.Writer, m *machine.Machine, sections []Section) error {
	snap, err := m.Checkpoint()
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[0:12], magic[:])
	binary.BigEndian.PutUint32(hdr[12:16], Version)
	hash := ConfigHash(m.Cfg)
	copy(hdr[16:48], hash[:])
	binary.BigEndian.PutUint64(hdr[48:56], uint64(snap.Sim.CurTime))
	user, kern, intr := totals(snap)
	binary.BigEndian.PutUint64(hdr[56:64], user)
	binary.BigEndian.PutUint64(hdr[64:72], kern)
	binary.BigEndian.PutUint64(hdr[72:80], intr)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	// Encode into a buffer first so a failed encode never leaves a torn
	// file behind a valid header.
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload{Machine: snap, Sections: sections}); err != nil {
		return fmt.Errorf("checkpoint: encode: %w", err)
	}
	_, err = w.Write(body.Bytes())
	return err
}

// ReadInfo reads just the 80-byte header. A stream that ends early returns
// ErrTruncated, one that doesn't start with the magic returns ErrBadMagic —
// never a raw io.EOF or gob error.
func ReadInfo(r io.Reader) (Info, error) {
	var hdr [headerSize]byte
	switch n, err := io.ReadFull(r, hdr[:]); {
	case errors.Is(err, io.EOF):
		return Info{}, fmt.Errorf("%w: empty stream", ErrTruncated)
	case errors.Is(err, io.ErrUnexpectedEOF):
		return Info{}, fmt.Errorf("%w: %d of %d header bytes", ErrTruncated, n, headerSize)
	case err != nil:
		return Info{}, fmt.Errorf("checkpoint: read header: %w", err)
	}
	if !bytes.Equal(hdr[0:12], magic[:]) {
		return Info{}, ErrBadMagic
	}
	info := Info{Version: binary.BigEndian.Uint32(hdr[12:16])}
	copy(info.ConfigHash[:], hdr[16:48])
	info.Cycle = binary.BigEndian.Uint64(hdr[48:56])
	info.UserCycles = binary.BigEndian.Uint64(hdr[56:64])
	info.KernelCycles = binary.BigEndian.Uint64(hdr[64:72])
	info.IntrCycles = binary.BigEndian.Uint64(hdr[72:80])
	return info, nil
}

// Restore rebuilds a machine from a checkpoint stream.
func Restore(r io.Reader) (*machine.Machine, error) {
	m, _, err := RestoreFull(r)
	return m, err
}

// RestoreFull rebuilds a machine and returns the host-side workload
// sections by name.
func RestoreFull(r io.Reader) (*machine.Machine, map[string][]byte, error) {
	info, err := ReadInfo(r)
	if err != nil {
		return nil, nil, err
	}
	if info.Version != Version {
		return nil, nil, fmt.Errorf("checkpoint: format version %d, want %d", info.Version, Version)
	}
	var body payload
	if err := gob.NewDecoder(r).Decode(&body); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, fmt.Errorf("checkpoint: truncated body: %w", err)
		}
		return nil, nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	if body.Machine == nil {
		return nil, nil, fmt.Errorf("checkpoint: empty body")
	}
	if got := ConfigHash(body.Machine.Cfg); got != info.ConfigHash {
		return nil, nil, fmt.Errorf("checkpoint: config hash mismatch (header %x, body %x)",
			info.ConfigHash[:8], got[:8])
	}
	m, err := machine.Restore(body.Machine)
	if err != nil {
		return nil, nil, err
	}
	sections := make(map[string][]byte, len(body.Sections))
	for _, s := range body.Sections {
		sections[s.Name] = s.Data
	}
	return m, sections, nil
}
