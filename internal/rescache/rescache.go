// Package rescache is a persistent, content-addressed cache of
// simulation results. The simulator is deterministic and every cell
// runs on a cold build, so the same design point, kernel and options
// always produce the same sim.Result — so memoizing results is *exact*:
// a cache hit returns the very bytes a fresh simulation would compute,
// and repeated design-space traffic (search drivers revisiting points,
// warm re-runs of a sweep, a simulation service under load) becomes
// nearly free.
//
// The store is its directory: a content-addressed tree of binary result
// blobs under <dir>/v<schema>/<dd>/<digest>.bin, written atomically
// (temp file + rename) so concurrent writers racing on the same key
// converge to one well-formed blob. Every probe reads the disk; nothing
// is kept in memory between probes. On Linux the store holds the
// v<schema> directory open from Open to Close and resolves every blob
// relative to it (see blobs_linux.go).
//
// A blob is a compact binary envelope (see codec.go): a magic number, a
// digest of sim.Result's field layout, the schema version and the full
// key, then the result's fields in order as varints and length-prefixed
// strings. A changed sim.Result layout, a schema bump, a truncated or
// corrupt blob, or a digest collision all read back as a clean miss —
// never as a wrong result — and the next Put rewrites the entry. Stores
// written by the JSON-envelope format (v1/<dd>/<digest>.json) are not
// read at all, nor are binary stores of an older schema: every cell
// misses once and refills under the current v<schema>.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"heteromem/internal/sim"
)

// SchemaVersion is the result-blob schema. Bump it whenever simulator
// semantics change in a way that alters results without changing the
// design-point spec: stale entries then miss cleanly instead of serving
// pre-change results. A change to sim.Result's fields needs no bump:
// the layout digest in every blob retires the old entries. Version 1
// was the JSON envelope; version 2 the binary one; version 3 retires
// results simulated while each L3 tile reached only a quarter of its
// sets.
const SchemaVersion = 3

// Key identifies one simulation exactly: two cells collide iff they are
// bit-identically the same simulation. Spec is the canonical design-point
// hash (systems.Hash — model, fabric, protocol, granularity, params,
// mem-tech, translation); Kernel and Workload pin the program identity
// and its generated shape; Options fingerprints any sim.Options that
// alter results (empty for the baseline sweep configuration).
//
// A key built by NewKey carries its sha256, so a cell's probe and its
// store share one hash; a key written as a literal computes it on each
// use. Changing a field of a key from NewKey leaves its sum stale: build
// a new key instead. A stale sum cannot serve a wrong result, since
// every blob carries the full key and a read checks it, but it files
// the blob where the new fields will never look.
type Key struct {
	Spec     string `json:"spec"`
	Kernel   string `json:"kernel"`
	Workload string `json:"workload"`
	Options  string `json:"options,omitempty"`

	sum [sha256.Size]byte // zero until NewKey computes it
}

// NewKey returns the key of the four strings with its sum computed.
func NewKey(spec, kernel, workload, options string) Key {
	k := Key{Spec: spec, Kernel: kernel, Workload: workload, Options: options}
	k.sum = k.sum256()
	return k
}

// Digest returns the key's content address: the sha256 of its canonical
// JSON encoding, in hex. The digest deliberately excludes the schema
// version — versioning lives in the on-disk layout (v<schema>/) and the
// envelope, so a schema bump retires old entries without recomputing
// addresses.
func (k Key) Digest() string {
	sum := k.sum256()
	return hex.EncodeToString(sum[:])
}

// sum256 returns the sum NewKey computed, or computes it for a literal
// key. A real sum of all zero bytes would only be recomputed.
func (k *Key) sum256() [sha256.Size]byte {
	if k.sum != ([sha256.Size]byte{}) {
		return k.sum
	}
	var buf [256]byte
	data, ok := k.appendJSON(buf[:0])
	if !ok {
		var err error
		if data, err = json.Marshal(*k); err != nil {
			// Keys are plain strings; Marshal cannot fail.
			panic("rescache: marshaling key: " + err.Error())
		}
	}
	return sha256.Sum256(data)
}

// appendJSON appends json.Marshal(k) to buf, written by hand, when every
// byte of k's strings is one that json.Marshal copies verbatim:
// printable ASCII other than the quote, the backslash and the three
// characters it escapes for HTML. A string holding any other byte — a
// control byte, non-ASCII, invalid UTF-8 — reports false, and Digest
// marshals the key instead, so the digest never depends on which path
// computed it.
func (k *Key) appendJSON(buf []byte) ([]byte, bool) {
	if !verbatimJSON(k.Spec) || !verbatimJSON(k.Kernel) || !verbatimJSON(k.Workload) || !verbatimJSON(k.Options) {
		return buf, false
	}
	buf = append(buf, `{"spec":"`...)
	buf = append(buf, k.Spec...)
	buf = append(buf, `","kernel":"`...)
	buf = append(buf, k.Kernel...)
	buf = append(buf, `","workload":"`...)
	buf = append(buf, k.Workload...)
	if k.Options != "" {
		buf = append(buf, `","options":"`...)
		buf = append(buf, k.Options...)
	}
	return append(buf, `"}`...), true
}

func verbatimJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// envelope is what a blob carries: the schema version and the full key
// ride with the result, so a read verifies it is decoding exactly what
// the prober asked for before trusting the payload.
type envelope struct {
	Schema int
	Key    Key
	Result sim.Result
}

// Stats is a point-in-time copy of the store's counters.
type Stats struct {
	// Hits and Misses count probes.
	Hits, Misses uint64
	// DiskHits equals Hits: every hit is read from disk.
	DiskHits uint64
	// Puts counts Put calls, stored or not; Corrupt counts blobs that
	// failed to decode or verify and were treated as misses.
	Puts, Corrupt uint64
	// BytesRead and BytesWritten count disk blob traffic.
	BytesRead, BytesWritten uint64
	// ProbeNS is the cumulative host time spent inside Get.
	ProbeNS uint64
}

// HitRate returns hits over probes, or 0 with no probes.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// blobBufLen is the stack buffer Get reads a blob into: a blob is about
// 370 bytes, and a larger one grows the buffer on the heap.
const blobBufLen = 1024

// errClosed is what reading or writing a blob of a closed store returns.
var errClosed = errors.New("rescache: store is closed")

// Store is the result cache of one directory. All methods are safe for
// concurrent use by sweep workers; a nil *Store disables caching (Get
// always misses without counting, Put is a no-op).
type Store struct {
	dir    string
	schema int // SchemaVersion; tests open other schemas to simulate bumps
	// disk reads and writes the blobs of the schema-version directory;
	// Close releases it.
	disk blobs

	hits, misses  atomic.Uint64
	puts, corrupt atomic.Uint64
	bytesRead     atomic.Uint64
	bytesWritten  atomic.Uint64
	probeNS       atomic.Uint64
	writeErr      atomic.Pointer[error]
}

// Open returns a store backed by the content-addressed directory dir,
// creating it (and the current schema-version subdirectory) as needed.
// An empty dir is an error: a nil *Store is the "no cache" value. A
// sim.Result field the blob codec cannot encode makes every store fail
// to open.
//
// On Linux a store holds its schema-version directory open until
// Close, and reads and writes the directory it opened even if the path
// is later renamed or replaced. A store dropped without Close releases
// the directory when the garbage collector finalizes it.
func Open(dir string) (*Store, error) {
	return open(dir, SchemaVersion)
}

// open is Open for a store of the given schema version.
func open(dir string, schema int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("rescache: no directory given")
	}
	if layoutErr != nil {
		return nil, layoutErr
	}
	s := &Store{dir: dir, schema: schema}
	versionDir := filepath.Join(dir, "v"+strconv.Itoa(schema))
	if err := os.MkdirAll(versionDir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	if err := s.disk.open(versionDir); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	return s, nil
}

// Close releases the store's directory. Afterwards Get misses, and Put
// stores nothing and latches an error for Err. Close is idempotent; a
// nil store's Close does nothing.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	return s.disk.close()
}

// Dir returns the store's directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// blobPath fans the CAS out on the digest's first byte so no single
// directory accumulates the whole design space.
func (b *blobs) blobPath(digest string) string {
	return b.prefix + digest[:2] + string(filepath.Separator) + digest + ".bin"
}

// relPathLen is the length of a blob's path relative to the
// schema-version directory, "dd/<digest>.bin".
const relPathLen = 2 + 1 + 2*sha256.Size + len(".bin")

// appendRelPath appends the blob path of sum relative to the
// schema-version directory, with '/' separators, to buf. The caller's
// buffer can live on its stack.
func appendRelPath(buf []byte, sum *[sha256.Size]byte) []byte {
	buf = hex.AppendEncode(buf, sum[:1])
	buf = append(buf, '/')
	buf = hex.AppendEncode(buf, sum[:])
	return append(buf, ".bin"...)
}

// Get reads the key's result from its blob. A missing blob is a miss;
// an undecodable, truncated, schema-stale or key-mismatched blob is a
// miss counted as Corrupt; a blob of another sim.Result layout, retired
// by a code change like a schema bump, is a plain miss.
func (s *Store) Get(key Key) (sim.Result, bool) {
	if s == nil {
		return sim.Result{}, false
	}
	start := time.Now()
	defer func() { s.probeNS.Add(uint64(time.Since(start).Nanoseconds())) }()

	sum := key.sum256()
	var buf [blobBufLen]byte
	data, err := s.disk.read(&sum, buf[:0])
	if err != nil {
		s.misses.Add(1)
		return sim.Result{}, false
	}
	s.bytesRead.Add(uint64(len(data)))
	res, err := decodeResult(data, s.schema, key)
	if err != nil {
		if !errors.Is(err, errLayout) {
			s.corrupt.Add(1)
		}
		s.misses.Add(1)
		return sim.Result{}, false
	}
	s.hits.Add(1)
	return res, true
}

// Put writes the result as the key's blob: to a temp file renamed into
// place, so concurrent workers racing on the same key each install a
// complete blob and the last rename wins — with deterministic results,
// all racers carry identical bytes. A write error is returned and also
// latched for Err; the result is then not stored, and a later probe of
// the key misses.
func (s *Store) Put(key Key, res sim.Result) error {
	if s == nil {
		return nil
	}
	sum := key.sum256()
	s.puts.Add(1)
	data := appendEnvelope(nil, &envelope{Schema: s.schema, Key: key, Result: res})
	if err := s.disk.write(&sum, data); err != nil {
		return s.latch(err)
	}
	s.bytesWritten.Add(uint64(len(data)))
	return nil
}

// latch records the first write error for Err and returns err.
func (s *Store) latch(err error) error {
	s.writeErr.CompareAndSwap(nil, &err)
	return err
}

// Err returns the first write error the store encountered, if any. A
// failed write leaves its result unstored; it never fails a sweep.
func (s *Store) Err() error {
	if s == nil {
		return nil
	}
	if p := s.writeErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stats returns a snapshot of the store's counters. Safe to call while
// workers probe and fill.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	hits := s.hits.Load()
	return Stats{
		Hits:         hits,
		Misses:       s.misses.Load(),
		DiskHits:     hits,
		Puts:         s.puts.Load(),
		Corrupt:      s.corrupt.Load(),
		BytesRead:    s.bytesRead.Load(),
		BytesWritten: s.bytesWritten.Load(),
		ProbeNS:      s.probeNS.Load(),
	}
}

// Counters exports the store's statistics in the observability
// registry's flat counter form, under the rescache.* namespace.
func (s Stats) Counters() map[string]uint64 {
	return map[string]uint64{
		"rescache.hits":          s.Hits,
		"rescache.misses":        s.Misses,
		"rescache.puts":          s.Puts,
		"rescache.corrupt":       s.Corrupt,
		"rescache.bytes":         s.BytesRead + s.BytesWritten,
		"rescache.bytes_read":    s.BytesRead,
		"rescache.bytes_written": s.BytesWritten,
		"rescache.probe_ns":      s.ProbeNS,
	}
}
