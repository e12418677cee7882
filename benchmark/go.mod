module pmsb/benchmark

go 1.22

require pmsb v0.0.0

replace pmsb => ../
