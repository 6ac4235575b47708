package util

import (
	"sync"
	"testing"
)

func TestSegmentPoolBasics(t *testing.T) {
	p := NewSegmentPool(1024)
	if p.SegmentSize() != 1024 {
		t.Fatalf("SegmentSize = %d", p.SegmentSize())
	}
	s := p.Get()
	if len(s) != 0 || cap(s) != 1024 {
		t.Fatalf("Get: len=%d cap=%d", len(s), cap(s))
	}
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d", p.Outstanding())
	}
	p.Put(s)
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding after Put = %d", p.Outstanding())
	}
}

func TestSegmentPoolDefaultSize(t *testing.T) {
	p := NewSegmentPool(0)
	if p.SegmentSize() != DefaultSegmentSize {
		t.Fatalf("default size = %d", p.SegmentSize())
	}
}

func TestSegmentPoolRejectsForeign(t *testing.T) {
	p := NewSegmentPool(64)
	p.Put(make([]byte, 128)) // wrong size: ignored
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d", p.Outstanding())
	}
}

func TestSegmentPoolConcurrent(t *testing.T) {
	p := NewSegmentPool(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s := p.Get()
				s = append(s, byte(i))
				_ = s
				p.Put(s)
			}
		}()
	}
	wg.Wait()
	if p.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after all returned", p.Outstanding())
	}
}
