// Package tpch generates a deterministic, scaled-down physical copy of the
// TPC-H dataset. The paper evaluates on a 100 GB (SF 100) deployment; we
// cannot materialize that in-process, so the generator populates a small
// physical dataset (default a few thousand orders) whose value
// distributions match the TPC-H spec closely enough for every query
// pattern in the paper (country-code phone prefixes, market segments,
// nation names, order statuses, dates, ...), while the *catalog statistics*
// and the latency model continue to reflect the modeled 100 GB scale.
package tpch

import (
	"fmt"
	"math/rand"

	"htapxplain/internal/catalog"
	"htapxplain/internal/value"
)

// Dataset is the generated physical data: table name → rows in catalog
// column order.
type Dataset struct {
	Cat    *catalog.Catalog
	Tables map[string][]value.Row
	// Seed and PhysScale record how the data was generated.
	Seed      int64
	PhysScale float64
}

// Rows returns the physical rows of a table (nil if unknown).
func (d *Dataset) Rows(table string) []value.Row { return d.Tables[table] }

// Nations are the 25 TPC-H nations (lowercased: the paper's example query
// filters n_name = 'egypt').
var Nations = []string{
	"algeria", "argentina", "brazil", "canada", "egypt",
	"ethiopia", "france", "germany", "india", "indonesia",
	"iran", "iraq", "japan", "jordan", "kenya",
	"morocco", "mozambique", "peru", "china", "romania",
	"saudi arabia", "vietnam", "russia", "united kingdom", "united states",
}

// Regions are the 5 TPC-H regions.
var Regions = []string{"africa", "america", "asia", "europe", "middle east"}

// nationRegion maps nation index to region index per the TPC-H spec.
var nationRegion = []int64{
	0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0,
	0, 0, 1, 2, 3, 4, 2, 3, 3, 1,
}

// MktSegments are the customer market segments.
var MktSegments = []string{"automobile", "building", "furniture", "machinery", "household"}

// OrderStatuses are the order status codes ('p' = pending, used by the
// paper's Example 1).
var OrderStatuses = []string{"o", "f", "p"}

// OrderPriorities are the five order priorities.
var OrderPriorities = []string{"1-urgent", "2-high", "3-medium", "4-not specified", "5-low"}

// ShipModes are the seven line-item ship modes.
var ShipModes = []string{"reg air", "air", "rail", "ship", "truck", "mail", "fob"}

// ShipInstructs are the four ship instructions.
var ShipInstructs = []string{"deliver in person", "collect cod", "none", "take back return"}

// Containers / types / brands for part.
var (
	containers = []string{"sm case", "sm box", "sm pack", "med bag", "med box", "lg case", "lg box", "lg pack", "jumbo pkg", "wrap jar"}
	partTypes  = []string{"standard anodized tin", "small plated copper", "economy brushed steel", "promo burnished nickel", "large polished brass", "medium anodized steel"}
	partNames  = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black", "blanched", "blue", "blush"}
)

var comments = []string{
	"carefully packed deposits", "quick final requests", "furious pending accounts",
	"slyly ironic ideas", "bold express foxes", "even silent platelets",
	"regular special packages", "blithely unusual theodolites",
}

// Config controls generation.
type Config struct {
	// PhysScale is the physical scale factor: base TPC-H cardinalities
	// are multiplied by it (e.g. 0.002 → 300 customers, 3 000 orders).
	PhysScale float64
	// Seed drives all randomness; identical seeds yield identical data.
	Seed int64
}

// DefaultConfig is the configuration every experiment uses unless stated
// otherwise: ~3k orders, deterministic seed.
func DefaultConfig() Config { return Config{PhysScale: 0.002, Seed: 42} }

// Generate materializes the dataset described by cfg against the given
// catalog (which must contain the TPC-H schema).
func Generate(cat *catalog.Catalog, cfg Config) (*Dataset, error) {
	if cfg.PhysScale <= 0 {
		return nil, fmt.Errorf("tpch: PhysScale must be positive, got %g", cfg.PhysScale)
	}
	for _, name := range []string{"region", "nation", "supplier", "customer", "part", "partsupp", "orders", "lineitem"} {
		if _, ok := cat.Table(name); !ok {
			return nil, fmt.Errorf("tpch: catalog missing table %q", name)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Dataset{
		Cat:    cat,
		Tables: make(map[string][]value.Row, 8),
		Seed:   cfg.Seed, PhysScale: cfg.PhysScale,
	}

	n := func(base int) int {
		v := int(float64(base) * cfg.PhysScale)
		if v < 1 {
			v = 1
		}
		return v
	}
	nSupplier := n(10_000)
	nCustomer := n(150_000)
	nPart := n(200_000)
	nOrders := n(1_500_000)

	d.Tables["region"] = genRegion()
	d.Tables["nation"] = genNation()
	d.Tables["supplier"] = genSupplier(rng, nSupplier)
	d.Tables["customer"] = genCustomer(rng, nCustomer)
	d.Tables["part"] = genPart(rng, nPart)
	d.Tables["partsupp"] = genPartSupp(rng, nPart, nSupplier)
	orders, lineitems := genOrdersAndLineitems(rng, nOrders, nCustomer, nPart, nSupplier)
	d.Tables["orders"] = orders
	d.Tables["lineitem"] = lineitems
	return d, nil
}

func pick(rng *rand.Rand, opts []string) string { return opts[rng.Intn(len(opts))] }

func genRegion() []value.Row {
	rows := make([]value.Row, len(Regions))
	for i, name := range Regions {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewString(name),
			value.NewString("region comment " + name),
		}
	}
	return rows
}

func genNation() []value.Row {
	rows := make([]value.Row, len(Nations))
	for i, name := range Nations {
		rows[i] = value.Row{
			value.NewInt(int64(i)),
			value.NewString(name),
			value.NewInt(nationRegion[i]),
			value.NewString("nation comment " + name),
		}
	}
	return rows
}

// phone builds a TPC-H style phone number whose first two digits are the
// country code nationkey+10 — this is what makes the paper's
// SUBSTRING(c_phone,1,2) IN ('20','40',...) predicates selective.
func phone(rng *rand.Rand, nationKey int64) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", nationKey+10,
		100+rng.Intn(900), 100+rng.Intn(900), 1000+rng.Intn(9000))
}

func genSupplier(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		nk := int64(rng.Intn(25))
		rows[i] = value.Row{
			value.NewInt(int64(i + 1)),
			value.NewString(fmt.Sprintf("supplier#%09d", i+1)),
			value.NewString(fmt.Sprintf("address %d", rng.Intn(10000))),
			value.NewInt(nk),
			value.NewString(phone(rng, nk)),
			value.NewFloat(float64(rng.Intn(1100000)-100000) / 100.0),
			value.NewString(pick(rng, comments)),
		}
	}
	return rows
}

func genCustomer(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		nk := int64(rng.Intn(25))
		rows[i] = value.Row{
			value.NewInt(int64(i + 1)),
			value.NewString(fmt.Sprintf("customer#%09d", i+1)),
			value.NewString(fmt.Sprintf("address %d", rng.Intn(10000))),
			value.NewInt(nk),
			value.NewString(phone(rng, nk)),
			value.NewFloat(float64(rng.Intn(1100000)-100000) / 100.0),
			value.NewString(pick(rng, MktSegments)),
			value.NewString(pick(rng, comments)),
		}
	}
	return rows
}

func genPart(rng *rand.Rand, n int) []value.Row {
	rows := make([]value.Row, n)
	for i := 0; i < n; i++ {
		rows[i] = value.Row{
			value.NewInt(int64(i + 1)),
			value.NewString(pick(rng, partNames) + " " + pick(rng, partNames)),
			value.NewString(fmt.Sprintf("manufacturer#%d", 1+rng.Intn(5))),
			value.NewString(fmt.Sprintf("brand#%d%d", 1+rng.Intn(5), 1+rng.Intn(5))),
			value.NewString(pick(rng, partTypes)),
			value.NewInt(int64(1 + rng.Intn(50))),
			value.NewString(pick(rng, containers)),
			value.NewFloat(900.0 + float64(i%200) + float64(rng.Intn(100))/100.0),
			value.NewString(pick(rng, comments)),
		}
	}
	return rows
}

func genPartSupp(rng *rand.Rand, nPart, nSupp int) []value.Row {
	rows := make([]value.Row, 0, nPart*4)
	for p := 1; p <= nPart; p++ {
		for j := 0; j < 4; j++ {
			rows = append(rows, value.Row{
				value.NewInt(int64(p)),
				value.NewInt(int64(1 + (p+j*nPart/4)%nSupp)),
				value.NewInt(int64(1 + rng.Intn(9999))),
				value.NewFloat(float64(100+rng.Intn(99900)) / 100.0),
				value.NewString(pick(rng, comments)),
			})
		}
	}
	return rows
}

// epochDay converts a (year, dayOfYear) pair into days since 1992-01-01,
// the start of the TPC-H date range.
func epochDay(year, doy int) int64 { return int64((year-1992)*365 + doy) }

func genOrdersAndLineitems(rng *rand.Rand, nOrders, nCust, nPart, nSupp int) (orders, lineitems []value.Row) {
	orders = make([]value.Row, nOrders)
	lineitems = make([]value.Row, 0, nOrders*4)
	for i := 0; i < nOrders; i++ {
		okey := int64(i + 1)
		ckey := int64(1 + rng.Intn(nCust))
		status := pick(rng, OrderStatuses)
		odate := epochDay(1992+rng.Intn(7), rng.Intn(365))
		nLines := 1 + rng.Intn(7)
		var total float64
		for ln := 1; ln <= nLines; ln++ {
			qty := float64(1 + rng.Intn(50))
			price := float64(90000+rng.Intn(10000)) / 100.0 * qty / 10
			disc := float64(rng.Intn(11)) / 100.0
			tax := float64(rng.Intn(9)) / 100.0
			total += price * (1 - disc) * (1 + tax)
			ship := odate + int64(1+rng.Intn(121))
			commit := odate + int64(30+rng.Intn(60))
			receipt := ship + int64(1+rng.Intn(30))
			rf := "n"
			if status == "f" && rng.Intn(2) == 0 {
				rf = pick(rng, []string{"r", "a"})
			}
			ls := "o"
			if status == "f" {
				ls = "f"
			}
			lineitems = append(lineitems, value.Row{
				value.NewInt(okey),
				value.NewInt(int64(1 + rng.Intn(nPart))),
				value.NewInt(int64(1 + rng.Intn(nSupp))),
				value.NewInt(int64(ln)),
				value.NewFloat(qty),
				value.NewFloat(price),
				value.NewFloat(disc),
				value.NewFloat(tax),
				value.NewString(rf),
				value.NewString(ls),
				value.NewInt(ship),
				value.NewInt(commit),
				value.NewInt(receipt),
				value.NewString(pick(rng, ShipInstructs)),
				value.NewString(pick(rng, ShipModes)),
				value.NewString(pick(rng, comments)),
			})
		}
		orders[i] = value.Row{
			value.NewInt(okey),
			value.NewInt(ckey),
			value.NewString(status),
			value.NewFloat(total),
			value.NewInt(odate),
			value.NewString(pick(rng, OrderPriorities)),
			value.NewString(fmt.Sprintf("clerk#%09d", 1+rng.Intn(1000))),
			value.NewInt(0),
			value.NewString(pick(rng, comments)),
		}
	}
	return orders, lineitems
}
