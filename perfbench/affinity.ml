external allowed_cpus : unit -> int list = "perfbench_allowed_cpus"
external pin : int -> bool = "perfbench_pin_to_cpu"
