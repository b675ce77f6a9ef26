let size () = (Xq_config.Config.current ()).Xq_config.Config.batch
let batched () = size () > 1
