package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strconv"
)

// Workload names are the public contract (BENCHMARK.json, README.md).
const (
	wlPointReadMostly = "point_read_mostly"
	wlLongScan        = "long_scan"
	wlWriteChurn      = "write_churn"
	wlServiceMixed    = "service_mixed"
)

var workloadNames = []string{wlPointReadMostly, wlLongScan, wlWriteChurn, wlServiceMixed}

// Working sets are cache-resident on purpose: at 2^16 keys run-to-run
// spread doubles because DRAM latency on a shared host, not SMR cost,
// dominates.
const (
	pointKeys      = 1 << 12 // point_read_mostly, write_churn, service_mixed
	scanKeys       = 1 << 13 // long_scan key range; every even key is present
	serviceBuckets = 1024
	scanRows       = 16 // SCAN k 16

	workers = 2 // worker goroutines / connections in every workload

	// Schedules are cycled: long enough to cover every key many times,
	// short enough to stream from cache instead of competing with the
	// structure for it.
	pointSchedLen   = 1 << 16
	scanSchedLen    = 1 << 16
	serviceSchedLen = 1 << 16
)

// Facade/handle verbs, packed into the low two bits of a schedule entry
// (the key sits above them).
const (
	opGet = iota
	opInsert
	opRemove
)

// Service verbs.
const (
	verbGet = iota
	verbSet
	verbDel
	verbScan
	numVerbs
)

var verbNames = [numVerbs]string{"get", "set", "del", "scan"}

// valueOf is the value every write stores for key, so any read can be
// verified without shared state: a Get returns a miss or valueOf(key).
func valueOf(key int64) int64 { return key*2654435761 + 97 }

// schedule is one workload's pre-generated input: everything a worker
// will issue, fixed by the seed before timing starts.
type schedule struct {
	// ops[w] is worker w's cycled op list (facade and scan workloads).
	ops [workers][]uint32
	// Service workloads: reqs[w] holds the request lines back to back,
	// off[w][i]..off[w][i+1] delimits request i, verb/key describe it.
	reqs [workers][]byte
	off  [workers][]uint32
	verb [workers][]uint8
	key  [workers][]int32
}

// workerRand gives worker w of a workload its own stream.
func workerRand(seed int64, workload string, w int) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64()) ^ int64(w+1)*0x5851f42d4c957f2d))
}

// mixOps draws n ops over keys [0,keyRange) with the given percentages.
func mixOps(r *rand.Rand, n int, keyRange int64, getPct, insertPct int) []uint32 {
	ops := make([]uint32, n)
	for i := range ops {
		key := uint32(r.Int63n(keyRange))
		p := r.Intn(100)
		verb := uint32(opRemove)
		switch {
		case p < getPct:
			verb = opGet
		case p < getPct+insertPct:
			verb = opInsert
		}
		ops[i] = key<<2 | verb
	}
	return ops
}

func newSchedule(workload string, seed int64) *schedule {
	s := &schedule{}
	for w := 0; w < workers; w++ {
		r := workerRand(seed, workload, w)
		switch workload {
		case wlPointReadMostly:
			s.ops[w] = mixOps(r, pointSchedLen, pointKeys, 90, 5)
		case wlWriteChurn:
			s.ops[w] = mixOps(r, pointSchedLen, pointKeys, 0, 50)
		case wlLongScan:
			// Only the reader (worker 0) consumes a schedule; the writer
			// churns the fixed head key.
			s.ops[w] = mixOps(r, scanSchedLen, scanKeys, 100, 0)
		case wlServiceMixed:
			s.genService(r, w)
		default:
			panic("unknown workload " + workload)
		}
	}
	return s
}

// genService builds connection w's request lines: zipf(s=1.2) keys over
// 2^12, 70% GET / 20% SET / 5% DEL / 5% SCAN k 16.
func (s *schedule) genService(r *rand.Rand, w int) {
	z := rand.NewZipf(r, 1.2, 1, pointKeys-1)
	// Zipf's rank 0 is the hottest key; scatter ranks over the key space
	// so the hot set does not share one bucket chain neighbourhood.
	perm := r.Perm(pointKeys)
	off := make([]uint32, 0, serviceSchedLen+1)
	verbs := make([]uint8, serviceSchedLen)
	keys := make([]int32, serviceSchedLen)
	buf := make([]byte, 0, serviceSchedLen*16)
	for i := 0; i < serviceSchedLen; i++ {
		key := int64(perm[z.Uint64()])
		p := r.Intn(100)
		off = append(off, uint32(len(buf)))
		keys[i] = int32(key)
		switch {
		case p < 70:
			verbs[i] = verbGet
			buf = append(buf, "GET "...)
			buf = strconv.AppendInt(buf, key, 10)
		case p < 90:
			verbs[i] = verbSet
			buf = append(buf, "SET "...)
			buf = strconv.AppendInt(buf, key, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, valueOf(key), 10)
		case p < 95:
			verbs[i] = verbDel
			buf = append(buf, "DEL "...)
			buf = strconv.AppendInt(buf, key, 10)
		default:
			verbs[i] = verbScan
			buf = append(buf, "SCAN "...)
			buf = strconv.AppendInt(buf, key, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, scanRows, 10)
		}
		buf = append(buf, '\r', '\n')
	}
	off = append(off, uint32(len(buf)))
	s.reqs[w], s.off[w], s.verb[w], s.key[w] = buf, off, verbs, keys
}

// hash fingerprints the whole schedule: the same seed must give
// byte-identical inputs, a different seed must not.
func (s *schedule) hash() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for w := 0; w < workers; w++ {
		for _, op := range s.ops[w] {
			binary.LittleEndian.PutUint32(b[:], op)
			h.Write(b[:])
		}
		h.Write(s.reqs[w])
	}
	return h.Sum64()
}
