package hpbrcu_test

import (
	"fmt"
	"sort"
	"sync"

	hpbrcu "github.com/smrgo/hpbrcu"
)

// The basic lifecycle: build a map under HP-BRCU, register a per-goroutine
// handle, operate, and inspect the reclamation statistics.
func Example() {
	m, err := hpbrcu.NewHMList(hpbrcu.HPBRCU, hpbrcu.Config{})
	if err != nil {
		panic(err)
	}
	h := m.Register()
	defer h.Unregister()

	h.Insert(1, 100)
	h.Insert(2, 200)
	if v, ok := h.Get(1); ok {
		fmt.Println("key 1 =", v)
	}
	if v, ok := h.Remove(2); ok {
		fmt.Println("removed 2 =", v)
	}
	_, ok := h.Get(2)
	fmt.Println("key 2 present:", ok)
	// Output:
	// key 1 = 100
	// removed 2 = 200
	// key 2 present: false
}

// Concurrent use: one handle per goroutine, Barrier on the way out.
func Example_concurrent() {
	m, _ := hpbrcu.NewHashMap(hpbrcu.HPBRCU, 64, hpbrcu.Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			h := m.Register()
			defer h.Unregister()
			for i := int64(0); i < 100; i++ {
				h.Insert(base*100+i, i)
			}
			h.Barrier()
		}(int64(w))
	}
	wg.Wait()

	h := m.Register()
	defer h.Unregister()
	count := 0
	for k := int64(0); k < 400; k++ {
		if _, ok := h.Get(k); ok {
			count++
		}
	}
	fmt.Println("keys present:", count)
	// Output:
	// keys present: 400
}

// Scheme selection: every structure reports which schemes apply (Table 1
// of the paper); unsupported combinations return ErrUnsupported.
func ExampleErrUnsupported() {
	_, err := hpbrcu.NewHList(hpbrcu.HP, hpbrcu.Config{}) // Figure 2: unsafe
	fmt.Println(err)

	supported := []string{}
	for _, s := range hpbrcu.Schemes {
		if _, err := hpbrcu.NewHList(s, hpbrcu.Config{}); err == nil {
			supported = append(supported, s.String())
		}
	}
	sort.Strings(supported)
	fmt.Println(supported)
	// Output:
	// hpbrcu: HList does not support HP (see Table 1 of the paper)
	// [HP-BRCU HP-RCU NBR NBR-Large NR RCU VBR]
}

// GarbageBound exposes the §5 robustness bound for HP-BRCU maps.
func ExampleGarbageBound() {
	m, _ := hpbrcu.NewHMList(hpbrcu.HPBRCU, hpbrcu.Config{BatchSize: 10, ForceThreshold: 2})
	a := m.Register()
	b := m.Register()
	defer a.Unregister()
	defer b.Unregister()
	// G = 10*2 = 20, N = 3 (two threads and the map's adopter handle):
	// 2GN + GN² + H = 120 + 180 + 12.
	fmt.Println(hpbrcu.GarbageBound(m, 12))
	// Output:
	// 312
}
