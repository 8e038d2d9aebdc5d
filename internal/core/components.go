package core

import "chrysalis/internal/accel"

// Component is one row of the supported-setup inventory (Table III).
type Component struct {
	Subsystem   string
	Component   string
	Realization string
	BaseModel   string
}

// Components returns the Table III inventory of what this CHRYSALIS
// implementation supports.
func Components() []Component {
	return []Component{
		{"EH", "Energy Harvester", "Solar Panel", "pvlib-style irradiance model (internal/solar)"},
		{"EH", "EH Controller", "Power Management IC", "BQ25570-style thresholds (internal/pmic)"},
		{"EH", "Capacitor", "Electrolytic Capacitor", "Physics model I=k·C·U (internal/storage)"},
		{"Infer", "Infer Controller", "Microcontroller Unit", "MSP430FR5994 (internal/msp430)"},
		{"Infer", "Strategy", "Tile Partition, ckpt.", "iNAS-like InterTempMap (internal/intermittent)"},
		{"Infer", "Accelerator & Mapper", "Existing AuT Setup", "MSP430FR5994 + LEA (internal/msp430)"},
		{"Infer", "Accelerator & Mapper", "Future AuT Setup", "CHRYSALIS-MAESTRO dataflow model (internal/dataflow) + GA explorer (internal/search)"},
	}
}

// accelArch resolves an architecture name into a config skeleton.
func accelArch(name string) (accel.Config, error) {
	a, err := accel.ParseArch(name)
	if err != nil {
		return accel.Config{}, err
	}
	return accel.Config{Arch: a}, nil
}
