module openhpcxx/benchmark

go 1.22

require openhpcxx v0.0.0

replace openhpcxx => ../
