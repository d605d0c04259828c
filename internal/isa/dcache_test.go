package isa

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/sim"
)

func TestDecodeCacheInvalidationOnCodeWrite(t *testing.T) {
	d, env, c := cpuRig(t)
	img, err := Assemble(".org 0x4500\nmain: mov #0x1111, r5\nhang: jmp hang\n")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range img.Words {
		if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
			t.Fatal(err)
		}
	}
	c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
	stackTop := uint16(memsim.SRAMBase) + uint16(memsim.SRAMSize)

	c.Reset(img.Entry, stackTop)
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[5] != 0x1111 {
		t.Fatalf("r5 = %#x", c.R[5])
	}

	// Overwrite the immediate extension word, as a wild store into code
	// would. The cached decode of the mov must be invalidated.
	if err := d.Mem.WriteWord(memsim.Addr(img.Org)+2, 0x2222); err != nil {
		t.Fatal(err)
	}
	c.Reset(img.Entry, stackTop)
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[5] != 0x2222 {
		t.Fatalf("r5 = %#x after code write: stale decode cache", c.R[5])
	}

	// Overwrite the opcode word itself: retarget the mov from r5 to r6.
	img2, err := Assemble(".org 0x4500\nmain: mov #0x2222, r6\nhang: jmp hang\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mem.WriteWord(memsim.Addr(img.Org), img2.Words[0]); err != nil {
		t.Fatal(err)
	}
	c.Reset(img.Entry, stackTop)
	c.R[5] = 0
	if err := c.Step(env); err != nil {
		t.Fatal(err)
	}
	if c.R[6] != 0x2222 || c.R[5] != 0 {
		t.Fatalf("r5 = %#x, r6 = %#x after opcode write: stale decode cache", c.R[5], c.R[6])
	}
}

// TestDecodeCacheTimingEquivalence checks the cached fast path is
// cycle-for-cycle and access-for-access identical to fetch-and-decode,
// across addressing modes including symbolic (PC-relative) operands.
func TestDecodeCacheTimingEquivalence(t *testing.T) {
	src := `.org 0x4500
main:	mov #0, r5
	mov #data, r8
loop:	add #1, r5
	mov r5, &0x1C20
	add &0x1C20, r7
	mov data, r6
	mov r6, data2
	add @r8, r7
	cmp #200, r5
	jne loop
hang:	jmp hang
data:	.word 0x1234
data2:	.word 0
`
	type snap struct {
		now       sim.Cycles
		reads     uint64
		retired   uint64
		regs      [16]uint16
		voltage   float64
		dataWords [2]uint16
	}
	exec := func(cache bool) snap {
		d, env, c := cpuRig(t)
		img, err := Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range img.Words {
			if err := d.Mem.WriteWord(memsim.Addr(img.Org)+memsim.Addr(2*i), w); err != nil {
				t.Fatal(err)
			}
		}
		if cache {
			c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
		}
		c.Reset(img.Entry, uint16(memsim.SRAMBase)+uint16(memsim.SRAMSize))
		base := d.FRAM.Reads
		for i := 0; i < 1500; i++ {
			if err := c.Step(env); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
		var s snap
		s.now = d.Clock.Now()
		s.reads = d.FRAM.Reads - base
		s.retired = c.Retired()
		s.regs = c.R
		s.voltage = float64(d.Supply.Voltage())
		for i, sym := range []string{"data", "data2"} {
			a, ok := img.Symbols[sym]
			if !ok {
				t.Fatalf("symbol %s missing", sym)
			}
			v, err := d.Mem.ReadWord(memsim.Addr(a))
			if err != nil {
				t.Fatal(err)
			}
			s.dataWords[i] = v
		}
		return s
	}
	plain := exec(false)
	cached := exec(true)
	if plain != cached {
		t.Fatalf("cached execution diverged:\nplain:  %+v\ncached: %+v", plain, cached)
	}
}

// TestStepDecodeAllocFree: a decode-cache miss — forced here by rewriting
// the cached instruction's extension word, the invalidation path — and an
// uncached fetch (outside the cached region) decode into the CPU's scratch
// slot, not the heap.
func TestStepDecodeAllocFree(t *testing.T) {
	d, env, c := cpuRig(t)
	img, err := Assemble(".org 0x4500\nmain: mov #0x1111, r5\nhang: jmp hang\n")
	if err != nil {
		t.Fatal(err)
	}
	load(t, d, img.Org, img.Words...)
	c.EnableDecodeCache(d.FRAM, img.Org, img.Size())
	stackTop := uint16(memsim.SRAMBase) + uint16(memsim.SRAMSize)

	v := uint16(0)
	if n := testing.AllocsPerRun(100, func() {
		v++
		if err := d.Mem.WriteWord(memsim.Addr(img.Org)+2, v); err != nil {
			t.Fatal(err)
		}
		c.Reset(img.Entry, stackTop)
		if err := c.Step(env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Step on an invalidated entry: %v allocs, want 0", n)
	}
	if c.R[5] != v {
		t.Fatalf("r5 = %#x, want %#x: stale decode", c.R[5], v)
	}

	sram := uint16(memsim.SRAMBase)
	load(t, d, sram, img.Words[:2]...)
	if n := testing.AllocsPerRun(100, func() {
		c.Reset(sram, stackTop)
		if err := c.Step(env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("uncached Step: %v allocs, want 0", n)
	}
	if c.R[5] != 0x1111 {
		t.Fatalf("r5 = %#x after uncached step", c.R[5])
	}
}
