(** Parametric latency model for the end-to-end datapath.

    Hardware constants come straight from the paper's measurements
    (section 6.3.6): the FPGA LTM/Megaflow offload hits in ~9 us; software
    paths add an upcall, a classifier search and — on a full miss — the
    userspace pipeline plus Gigaflow's partitioning/rule-generation work.
    Software work is expressed in work units (tuples probed, DP operations,
    rules generated) and converted to time via per-unit costs calibrated to
    a 2.6 GHz server core (the paper's Xeon 8358P). *)

type deployment =
  | Offload_fpga  (** OVS/Megaflow-Offload or OVS/Gigaflow-Offload (Alveo U250) *)
  | Dpdk_host  (** OVS/DPDK on a host CPU core *)
  | Dpdk_arm  (** OVS/DPDK on the BlueField-2 ARM SoC *)
  | Kernel_host  (** OVS kernel datapath on the host *)
  | Kernel_arm  (** OVS kernel datapath on the BlueField-2 ARM SoC *)

val deployment_name : deployment -> string

val cache_hit_us : deployment -> float
(** Mean cache-hit latency of the deployment point (paper section 6.3.6):
    8.62 us for the FPGA offloads, 12.61 us DPDK/host, 51.26 us DPDK/ARM,
    671.48 us kernel/host, 3606.37 us kernel/ARM. *)

val cache_hit_stddev_us : deployment -> float

(** {1 Datapath components (FPGA-offload deployment)} *)

val hw_hit_us : float
(** Latency of a packet served entirely by the SmartNIC cache (~9 us,
    paper section 6.2.2). *)

val upcall_us : float
(** PCIe + handoff cost of sending a missed packet to software. *)

val emc_hit_us : float
(** Exact-match (EMC/Microflow) cache hit: one hash probe, no wildcard
    search.  Added on top of [upcall_us + sw_base_us]. *)

val cuckoo_hit_us : float
(** Cuckoo exact-match hit: up to two bucket probes over the full header
    vector.  Added on top of [upcall_us + sw_base_us]. *)

val sw_base_us : float
(** Fixed software forwarding cost (parse, action execution, transmit);
    [upcall_us + sw_base_us + sw_search_us] reproduces the paper's
    OVS/DPDK cache-hit latency of ~12.6 us. *)

val sw_search_us :
  ?algo:[ `Tss | `Nuevomatch | `Linear ] -> work:int -> unit -> float
(** Software cache search time from classifier work units.  A learned-model
    unit is ~7x cheaper than a TSS tuple probe (hot arithmetic vs hash
    probes over masked keys; cf. the NuevoMatch papers). *)

val slowpath_us :
  pipeline_lookups:int ->
  tuple_probes:int ->
  partition_work:int ->
  rulegen_work:int ->
  installs:int ->
  float
(** Full slowpath service time (excluding the upcall). *)

(** {1 CPU cycle accounting (paper Fig. 13)} *)

val probe_cycles : int
(** CPU cycles per software-classifier work unit (one hash-table tuple
    probe including mask application, ~450 cycles) — the per-level
    [cycles_per_work] of software wildcard-cache levels. *)

val cycles_userspace : pipeline_lookups:int -> tuple_probes:int -> int
val cycles_partition : partition_work:int -> int
val cycles_rulegen : rulegen_work:int -> int

val us_of_cycles : int -> float

(** {1 Telemetry} *)

val latency_histogram : unit -> Gf_telemetry.Histogram.t
(** A log-linear histogram whose bucket range is derived from the model's
    own extremes, so every modelled latency lands in the bounded-relative-
    error region rather than the clamped under/overflow buckets. *)
