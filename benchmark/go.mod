module gminer/benchmark

go 1.22

require gminer v0.0.0

replace gminer => ../
