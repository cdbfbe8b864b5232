package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// The benchmark checks the program against a model it keeps itself, never
// against the program's own counters. Every value is self-describing: it
// names the key it belongs to, the caller that wrote it, and a sequence
// number (data keys) or a balance (accounts), sealed by a checksum. Each
// data key is written only by its owning caller, and transfers are
// unconditional adds, so the final state is known exactly from what each
// caller saw acknowledged.

const (
	valueBytes  = 64
	dataKeyLen  = 10 // "d/" + 8 digits
	accKeyLen   = 8  // "a/" + 6 digits
	kindData    = 'd'
	kindAccount = 'a'
	ownerNone   = 0xff
)

// errMalformed is returned from transaction bodies that read a value the
// model rejects; it fails the operation without allocating.
var errMalformed = errors.New("stackbench: malformed value")

// putDigits writes v as n zero-padded decimal digits into b.
func putDigits(b []byte, v, n int) {
	for i := n - 1; i >= 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
}

// dataKey writes data key i into b (len dataKeyLen) and returns it.
func dataKey(b []byte, i int) []byte {
	b = b[:dataKeyLen]
	b[0], b[1] = 'd', '/'
	putDigits(b[2:], i, 8)
	return b
}

// accKey writes account key i into b (len accKeyLen) and returns it.
func accKey(b []byte, i int) []byte {
	b = b[:accKeyLen]
	b[0], b[1] = 'a', '/'
	putDigits(b[2:], i, 6)
	return b
}

// dataEnd is the exclusive upper bound of the data keys.
var dataEnd = []byte("d0")

func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// encodeValue fills v (len valueBytes): kind, key index, owner, the
// sequence number or balance, seed-derived filler and a checksum.
func encodeValue(v []byte, seed uint64, kind byte, idx int, owner byte, num uint64) []byte {
	v = v[:valueBytes]
	v[0] = kind
	binary.LittleEndian.PutUint64(v[1:9], uint64(idx))
	v[9] = owner
	binary.LittleEndian.PutUint64(v[10:18], num)
	x := seed ^ uint64(idx)*0x9e3779b97f4a7c15 ^ num*0xbf58476d1ce4e5b9
	for i := 18; i < 56; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(v[i:i+8], x)
	}
	binary.LittleEndian.PutUint64(v[56:64], fnv64(v[:56]))
	return v
}

// decodeValue checks v is a well-formed value of the given kind for key
// index idx and returns its owner and number.
func decodeValue(v []byte, kind byte, idx int) (owner byte, num uint64, ok bool) {
	if len(v) != valueBytes || v[0] != kind ||
		binary.LittleEndian.Uint64(v[1:9]) != uint64(idx) ||
		binary.LittleEndian.Uint64(v[56:64]) != fnv64(v[:56]) {
		return 0, 0, false
	}
	return v[9], binary.LittleEndian.Uint64(v[10:18]), true
}

// model is the expected state, built only from acknowledged operations.
// dataSeq[i] is written only by key i's owner; accDelta[c] only by caller
// c. A failed operation's outcome is unknown, so its keys are marked
// uncertain and skipped by the exact final-state comparison.
type model struct {
	w        *workload
	seed     uint64
	callers  int
	dataSeq  []uint64
	dataUnk  []bool
	accDelta [][]int64
	accUnk   []bool

	mu       sync.Mutex
	failures int
	first    string
}

func newModel(w *workload, seed uint64, callers int) *model {
	m := &model{
		w: w, seed: seed, callers: callers,
		dataSeq: make([]uint64, w.dataKeys),
		dataUnk: make([]bool, w.dataKeys),
		accUnk:  make([]bool, w.accounts),
	}
	for c := 0; c < callers; c++ {
		m.accDelta = append(m.accDelta, make([]int64, w.accounts))
	}
	return m
}

// fail records one check failure; only the first message is kept.
func (m *model) fail(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failures == 0 {
		m.first = fmt.Sprintf(format, args...)
	}
	m.failures++
}

func (m *model) failed() (int, string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failures, m.first
}

func (m *model) owner(i int) int { return i % m.callers }

// balance is account i's expected balance.
func (m *model) balance(i int) int64 {
	b := m.w.initialBalance
	for c := range m.accDelta {
		b += m.accDelta[c][i]
	}
	return b
}

// entryChecker compares a key-ordered stream of entries with the model;
// the final-state and recovery checks feed every user key through it.
type entryChecker struct {
	m      *model
	what   string
	keyBuf []byte
	nextD  int
	nextA  int
}

func (m *model) checker(what string) *entryChecker {
	return &entryChecker{m: m, what: what, keyBuf: make([]byte, 16)}
}

// entry checks one entry; entries must arrive in key order, accounts
// ("a/...") before data keys ("d/...").
func (ec *entryChecker) entry(k, v []byte) {
	m := ec.m
	switch {
	case ec.nextA < m.w.accounts && bytes.Equal(k, accKey(ec.keyBuf, ec.nextA)):
		i := ec.nextA
		ec.nextA++
		_, num, ok := decodeValue(v, kindAccount, i)
		if !ok {
			m.fail("%s: account %s holds a malformed value", ec.what, k)
			return
		}
		if !m.accUnk[i] && int64(num) != m.balance(i) {
			m.fail("%s: account %s balance %d, model %d", ec.what, k, int64(num), m.balance(i))
		}
	case ec.nextA == m.w.accounts && ec.nextD < m.w.dataKeys && bytes.Equal(k, dataKey(ec.keyBuf, ec.nextD)):
		i := ec.nextD
		ec.nextD++
		owner, seq, ok := decodeValue(v, kindData, i)
		if !ok || int(owner) != m.owner(i) {
			m.fail("%s: key %s holds a malformed value", ec.what, k)
			return
		}
		if !m.dataUnk[i] && seq != m.dataSeq[i] {
			m.fail("%s: key %s at seq %d, model's last acknowledged write is seq %d", ec.what, k, seq, m.dataSeq[i])
		}
	default:
		m.fail("%s: unexpected key %q (next expected account %d, data %d)", ec.what, k, ec.nextA, ec.nextD)
	}
}

// done checks that no key was missing.
func (ec *entryChecker) done() {
	if ec.nextA != ec.m.w.accounts || ec.nextD != ec.m.w.dataKeys {
		ec.m.fail("%s: saw %d/%d accounts and %d/%d data keys", ec.what,
			ec.nextA, ec.m.w.accounts, ec.nextD, ec.m.w.dataKeys)
	}
}
