package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"heteromem/internal/rescache"
	"heteromem/internal/sim"
	"heteromem/internal/systems"
	"heteromem/internal/trace"
	"heteromem/internal/workload"
)

// PointKey derives the exact result-cache key for simulating program p
// on sys with options opts: the canonical design-point hash
// (systems.Hash covers model, fabric, protocol, granularity, params,
// mem-tech and translation), the kernel identity, the workload's
// generated shape, and a fingerprint of the result-affecting simulator
// options. Two cells share a key iff they are bit-identically the same
// simulation; a deterministic simulator, built cold for every cell,
// maps equal keys to equal results, which makes the key an exact
// memoization key.
func PointKey(sys systems.System, p *workload.Program, opts sim.Options) rescache.Key {
	return cellKey(systems.Hash(sys), p, WorkloadFingerprint(p), opts)
}

// cellKey assembles the key of simulating p with opts on the system
// whose systems.Hash is spec, where fp is p's WorkloadFingerprint. The
// hashes come in precomputed so a sweep hashes each system once and
// reads each kernel's fingerprint from its interned program; PointKey
// and the executor both build their keys here, so the two cannot drift
// apart.
func cellKey(spec string, p *workload.Program, fp string, opts sim.Options) rescache.Key {
	return rescache.NewKey(spec, p.Name, fp, optionsFingerprint(opts))
}

// phaseFP pins one phase's shape. Generator-backed compute phases are
// identified by their instruction counts (the generators are
// deterministic functions of the kernel name, which the fingerprint also
// carries); materialized phases hash their full instruction streams, so
// a hand-loaded program file with the same name and counts but different
// instructions still keys differently.
type phaseFP struct {
	Kind      string `json:"kind"`
	CPUInsts  int    `json:"cpu,omitempty"`
	GPUInsts  int    `json:"gpu,omitempty"`
	CPUStream string `json:"cpu_sha,omitempty"`
	GPUStream string `json:"gpu_sha,omitempty"`
	Dir       string `json:"dir,omitempty"`
	Bytes     uint64 `json:"bytes,omitempty"`
	Addr      uint64 `json:"addr,omitempty"`
}

// objectFP pins one data object of the program's locality plan.
type objectFP struct {
	Addr     uint64 `json:"addr"`
	Size     uint32 `json:"size"`
	Region   int    `json:"region"`
	User     int    `json:"user"`
	Critical bool   `json:"critical,omitempty"`
}

type workloadFP struct {
	Name    string     `json:"name"`
	Pattern string     `json:"pattern"`
	Phases  []phaseFP  `json:"phases"`
	Objects []objectFP `json:"objects,omitempty"`
}

// WorkloadFingerprint returns a canonical content hash of the program's
// identity: name, pattern, every phase's kind and shape (with full
// stream hashes for materialized phases), and the locality objects. It
// is the Workload component of PointKey.
func WorkloadFingerprint(p *workload.Program) string {
	fp := workloadFP{Name: p.Name, Pattern: p.Pattern}
	for i := range p.Phases {
		ph := &p.Phases[i]
		e := phaseFP{Kind: ph.Kind.String()}
		switch ph.Kind {
		case workload.Transfer:
			e.Dir = ph.Dir.String()
			e.Bytes = ph.Bytes
			e.Addr = ph.Addr
		default:
			e.CPUInsts = ph.CPULen()
			e.GPUInsts = ph.GPULen()
			if len(ph.CPU) > 0 {
				e.CPUStream = streamDigest(ph.CPU)
			}
			if len(ph.GPU) > 0 {
				e.GPUStream = streamDigest(ph.GPU)
			}
		}
		fp.Phases = append(fp.Phases, e)
	}
	for _, o := range p.Objects {
		fp.Objects = append(fp.Objects, objectFP{
			Addr: o.Addr, Size: o.Size, Region: int(o.Region),
			User: int(o.User), Critical: o.Critical,
		})
	}
	data, err := json.Marshal(fp)
	if err != nil {
		panic("harness: marshaling workload fingerprint: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// streamDigest hashes a materialized trace stream via its canonical
// binary encoding.
func streamDigest(s trace.Stream) string {
	h := sha256.New()
	if err := trace.Write(h, s); err != nil {
		panic("harness: hashing trace stream: " + err.Error())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// optionsFingerprint reduces the result-affecting sim.Options to a
// canonical string. The baseline configuration (no overrides) maps to
// "", so sweep keys stay stable as new option axes appear. Arena,
// Metrics, Sampler, Tracer and HostProf never change results (pinned
// by the observability equivalence tests) and are excluded.
func optionsFingerprint(opts sim.Options) string {
	var parts []string
	if opts.DisableCoalescing {
		parts = append(parts, "nocoalesce")
	}
	if opts.Locality != nil {
		parts = append(parts, "loc:"+opts.Locality.Name())
	}
	if len(parts) == 0 {
		return ""
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "," + p
	}
	return out
}

// verifySampled reports whether a cache hit on key is selected for
// re-simulation at the given sampling fraction. Selection is
// deterministic — it hashes the key, not a random draw — so a given
// fraction always verifies the same stable subset of the design space
// and a re-run reproduces any mismatch it finds.
func verifySampled(key rescache.Key, fraction float64) bool {
	if fraction <= 0 {
		return false
	}
	if fraction >= 1 {
		return true
	}
	d := key.Digest()
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(hexByte(d[2*i], d[2*i+1]))
	}
	return float64(v)/float64(1<<64) < fraction
}

func hexByte(hi, lo byte) byte {
	return byte(hexNibble(hi)<<4 | hexNibble(lo))
}

func hexNibble(c byte) int {
	if c >= 'a' {
		return int(c-'a') + 10
	}
	return int(c - '0')
}

// ErrCacheMismatch is wrapped by verification failures, so callers can
// distinguish the determinism tripwire from ordinary simulation errors.
var ErrCacheMismatch = fmt.Errorf("rescache: cached result differs from re-simulation")
