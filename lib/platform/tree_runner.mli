(** The one runner behind every machine (DESIGN.md §15): mounts the
    root engine and the hardware domains nested below it, seats each
    processor on the access path its position in the tree implies, and
    runs the app.  {!Topology.build} is its only caller and hands it a
    validated tree trimmed to [nprocs] processors. *)

type tree = Cpus of int | Dom of (module Shm_proto.ENGINE) * tree list

val run :
  name:string ->
  clock_mhz:float ->
  fabric_of:(unit -> Shm_net.Fabric.config) option ->
  cache_cfg:Shm_memsys.Private_cache.config option ->
  bus_profile:Shm_proto.hw_profile ->
  faults:Shm_net.Fabric.faults ->
  crash:Shm_sim.Lifecycle.policy ->
  max_cycles:int option ->
  instrument:Instrument.t ->
  eager:bool ->
  tree ->
  Shm_parmacs.Parmacs.app ->
  nprocs:int ->
  Report.t
