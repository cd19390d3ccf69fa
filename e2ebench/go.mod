module pxml/e2ebench

go 1.22

require pxml v0.0.0

replace pxml => ../
