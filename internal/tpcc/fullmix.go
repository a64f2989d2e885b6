package tpcc

import (
	"fmt"
	"slices"
)

// This file extends the paper's New-Order + Payment subset (88% of TPC-C)
// to the full five-transaction mix — Delivery, Order-Status and Stock-Level
// complete the remaining 12%. The paper notes the two implemented
// transactions "represent 88% of the workload"; the engines' statement→task
// mapping handles the rest without any runtime change, which this file
// demonstrates. All three always touch only the home warehouse, so under a
// whole-transaction engine they ship into its domain as one task each.

// StockLevelThreshold is the quantity below which Stock-Level counts an
// item as low (the spec draws 10–20; we fix the midpoint for determinism).
const StockLevelThreshold = 15

// Delivery executes the TPC-C Delivery transaction for the terminal's home
// warehouse: for every district it consumes the oldest undelivered order
// (the minimum NewOrders entry), sums the amounts stored on the order's
// lines and credits the customer's balance.
func (t *Terminal) Delivery() error {
	return t.run(t.home, t.delFn)
}

// execDelivery is the Delivery statement body. Per district the NewOrders
// consume and the order's customer read fly while the line scan runs, and
// the balance credit closes the district.
func (t *Terminal) execDelivery(as AsyncStore) error {
	w := t.home
	for d := 1; d <= DistrictsPerWarehouse; d++ {
		// Oldest new order of the district: the minimum key in the
		// district's NewOrders range.
		lo, hi := OrderKey(d, 0), OrderKey(d, (1<<40)-1)
		t.delFound = false
		if _, err := as.Scan(w, NewOrders, lo, hi, t.delMinCB); err != nil {
			return err
		}
		if !t.delFound {
			continue // nothing to deliver in this district (allowed)
		}
		oldest := t.delOldest
		fdel := as.DeleteAsync(w, NewOrders, oldest)
		o := int(oldest & ((1 << 40) - 1))
		fcu := as.GetAsync(w, Orders, OrderKey(d, o))

		t.lines = t.lines[:0]
		llo, lhi := OrderLineKey(d, o, 0), OrderLineKey(d, o, 255)
		_, err := as.Scan(w, OrderLines, llo, lhi, t.linesCB)
		amount := uint64(0)
		for _, v := range t.lines {
			_, _, a := UnpackLine(v)
			amount += uint64(a)
		}
		cu, okC, eC := fcu.Value()
		_, _, eD := fdel.Value()
		switch {
		case err != nil:
		case eC != nil:
			err = eC
		case !okC:
			err = fmt.Errorf("delivery: order %d/%d missing", d, o)
		case eD != nil:
			err = eD
		}
		if err != nil {
			return err
		}
		fb := as.RMWAsync(w, CustomerBalance, CustomerKey(d, int(cu)), RMWAdd, amount)
		_, okB, eB := fb.Value()
		if eB != nil {
			return eB
		}
		if !okB {
			return fmt.Errorf("delivery: customer %d/%d missing", d, cu)
		}
	}
	t.Deliveries++
	return nil
}

// drawOrderStatus pre-draws one Order-Status' parameters in the historical
// rng order.
func (t *Terminal) drawOrderStatus() {
	p := &t.osp
	p.d = 1 + t.rng.Intn(DistrictsPerWarehouse)
	p.byName = t.rng.Intn(100) < 60
	if p.byName {
		p.name = LastName(nameNumber(1+t.rng.Intn(t.cfg.Customers), t.cfg.Customers))
		p.nameHash = NameHash(p.name)
	} else {
		p.cu = 1 + t.rng.Intn(t.cfg.Customers)
	}
}

// OrderStatus executes the TPC-C Order-Status transaction: it resolves a
// customer (60% by last name) and reads their most recent order, found by
// one CustomerLastOrder lookup, with its lines. Read-only and a chain of
// dependent statements, so it gains nothing from pipelining; it still ships
// whole into the warehouse's domain when the engine supports it.
func (t *Terminal) OrderStatus() error {
	t.drawOrderStatus()
	return t.run(t.home, t.osFn)
}

// execOrderStatus is the Order-Status body (synchronous: every statement
// depends on the one before).
func (t *Terminal) execOrderStatus(s Store, p *osParams) error {
	w := t.home
	d := p.d
	cu := p.cu
	if p.byName {
		lo, hi := CustomerNameRange(d, p.nameHash)
		t.matches = t.matches[:0]
		if _, err := s.Scan(w, CustomerByName, lo, hi, t.matchCB); err != nil {
			return err
		}
		if len(t.matches) == 0 {
			return fmt.Errorf("order-status: no customer named %s in %d/%d", p.name, w, d)
		}
		cu = t.matches[len(t.matches)/2]
	}
	if _, ok, err := s.Get(w, CustomerBalance, CustomerKey(d, cu)); err != nil || !ok {
		return orFmt(err, "order-status: customer %d/%d missing", d, cu)
	}
	// Most recent order of this customer; none before their first
	// New-Order.
	last, found, err := s.Get(w, CustomerLastOrder, CustomerKey(d, cu))
	if err != nil {
		return err
	}
	if found {
		llo := OrderLineKey(d, int(last), 0)
		if _, err := s.Scan(w, OrderLines, llo, llo|255, func(k, v uint64) bool { return true }); err != nil {
			return err
		}
	}
	t.OrderStatuses++
	return nil
}

// StockLevel executes the TPC-C Stock-Level transaction: it examines the
// order lines of the district's last 20 orders and counts the distinct
// items whose stock quantity is below the threshold. Read-only; the
// per-item stock reads are independent and pipeline as one flight.
func (t *Terminal) StockLevel() error {
	t.sld = 1 + t.rng.Intn(DistrictsPerWarehouse)
	return t.run(t.home, t.slFn)
}

// execStockLevel is the Stock-Level body.
func (t *Terminal) execStockLevel(as AsyncStore, d int) error {
	w := t.home
	next, ok, err := as.Get(w, DistrictNextOID, DistrictKey(d))
	if err != nil || !ok {
		return orFmt(err, "stock-level: district %d missing", d)
	}
	first := int(next) - 20
	if first < 1 {
		first = 1
	}
	t.lines = t.lines[:0]
	llo := OrderLineKey(d, first, 0)
	lhi := OrderLineKey(d, int(next), 255)
	if _, err := as.Scan(w, OrderLines, llo, lhi, t.linesCB); err != nil {
		return err
	}
	// Distinct items, read in ascending order.
	t.items = t.items[:0]
	for _, v := range t.lines {
		item, _, _ := UnpackLine(v)
		t.items = append(t.items, item)
	}
	slices.Sort(t.items)
	t.items = slices.Compact(t.items)
	t.futExtra = t.futExtra[:0]
	for _, item := range t.items {
		t.futExtra = append(t.futExtra, as.GetAsync(w, StockQuantity, StockKey(item)))
	}
	low := 0
	var firstErr error
	for _, f := range t.futExtra {
		q, okQ, err := f.Value()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if okQ && q < StockLevelThreshold {
			low++
		}
	}
	if firstErr != nil {
		return firstErr
	}
	t.StockLevels++
	_ = low // the count is the transaction's result; nothing to persist
	return nil
}

// NextFullMix runs one transaction of the full TPC-C mix with the
// specification's weights: 45% New-Order, 43% Payment, 4% each of
// Order-Status, Delivery and Stock-Level.
func (t *Terminal) NextFullMix() error {
	switch p := t.rng.Intn(100); {
	case p < 45:
		return t.NewOrder()
	case p < 88:
		return t.Payment()
	case p < 92:
		return t.OrderStatus()
	case p < 96:
		return t.Delivery()
	default:
		return t.StockLevel()
	}
}
