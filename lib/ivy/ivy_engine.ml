(* The IVY sequentially-consistent page DSM as a mountable coherence
   engine (registry name "ivy"). *)

module Kit = Shm_proto.Node_kit

let name = "ivy"
let kind = Shm_proto.Sdsm

let describe =
  "IVY sequentially-consistent page DSM: one writer at a time, whole-page \
   transfers, invalidation with acknowledgements on every write fault"

let mount (ctx : Shm_proto.ctx) =
  let sys =
    System.create ?lifecycle:ctx.lifecycle ctx.eng ctx.counters
      (Kit.fabric ctx) ~page_words:ctx.page_words
      ~shared_words:ctx.shared_words ~memories:ctx.memories
  in
  Kit.instance (module System) sys (System.kit sys) ~i_name:name ()
