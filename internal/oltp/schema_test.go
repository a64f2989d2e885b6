package oltp

import (
	"sync"
	"testing"

	"robustconf/internal/tpcc"
)

// TestDerivedColumnsMatchOracle runs the full mix from two concurrent
// terminals, one homed at each warehouse, on the direct engine, then checks
// the two columns New-Order maintains for the later transactions against
// what they replace:
//   - every CustomerLastOrder row equals the highest Orders id naming its
//     customer (the district scan Order-Status once made, kept here as the
//     oracle), and every customer with an order has a row;
//   - every order line's stored amount equals ItemPrice × quantity (the
//     price reads Delivery once made).
//
// Only a warehouse's home terminal writes its Orders and last-order rows,
// and item prices never change, so both hold exactly under concurrency.
func TestDerivedColumnsMatchOracle(t *testing.T) {
	const perTerminal = 2500
	e := loadDirect(t, newFPTree)
	var wg sync.WaitGroup
	for home := 1; home <= smallCfg.Warehouses; home++ {
		term, err := tpcc.NewTerminal(smallCfg, e, home, 0.1, int64(home))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTerminal; i++ {
				if err := term.NextFullMix(); err != nil {
					t.Errorf("warehouse %d txn %d: %v", home, i, err)
					return
				}
			}
			if term.OrderStatuses == 0 || term.Deliveries == 0 {
				t.Errorf("warehouse %d: mix ran no Order-Status or Delivery", home)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w <= smallCfg.Warehouses; w++ {
		wh := e.Warehouse(w)
		rows := 0
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			last := map[int]int{} // customer → highest order id
			lo, hi := tpcc.OrderKey(d, 0), tpcc.OrderKey(d, (1<<40)-1)
			if _, err := e.Scan(w, tpcc.Orders, lo, hi, func(k, v uint64) bool {
				last[int(v)] = max(last[int(v)], int(k&(1<<40-1)))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			for c, o := range last {
				got, ok := wh.Table(tpcc.CustomerLastOrder).Get(tpcc.CustomerKey(d, c), nil)
				if !ok || int(got) != o {
					t.Fatalf("warehouse %d customer %d/%d: last order %d,%v, oracle %d", w, d, c, got, ok, o)
				}
			}
			rows += len(last)
		}
		if got := wh.Table(tpcc.CustomerLastOrder).Len(); got != rows {
			t.Errorf("warehouse %d: %d last-order rows, %d customers with orders", w, got, rows)
		}
		lines := 0
		if _, err := e.Scan(w, tpcc.OrderLines, 0, ^uint64(0), func(k, v uint64) bool {
			item, qty, amount := tpcc.UnpackLine(v)
			price, ok := wh.Table(tpcc.ItemPrice).Get(tpcc.ItemKey(item), nil)
			if !ok || amount != int(price)*qty {
				t.Fatalf("warehouse %d line %#x: item %d qty %d amount %d, price %d,%v", w, k, item, qty, amount, price, ok)
			}
			lines++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if lines == 0 || rows == 0 {
			t.Errorf("warehouse %d: %d lines and %d last-order rows checked", w, lines, rows)
		}
	}
}
