module fcae/benchmark

go 1.22

require fcae v0.0.0

replace fcae => ../
