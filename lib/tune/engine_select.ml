open Xpose_core
module S = Storage.Float64
module FF = Xpose_cpu.Fused_f64

type t = { cache : Plan.Cache.t }

let create ?(cache = Plan.Cache.default) () = { cache }

let dispatch ?pool t ~m ~n buf =
  if m < 1 || n < 1 then invalid_arg "Engine_select.dispatch: bad shape";
  if S.length buf <> m * n then
    invalid_arg "Engine_select.dispatch: buffer size does not match shape";
  match pool with
  | Some pool when Xpose_cpu.Pool.workers pool > 1 ->
      FF.transpose_pool ~cache:t.cache pool ~m ~n buf
  | _ -> FF.transpose ~cache:t.cache ~m ~n buf

let dispatch_batch t pool ~m ~n bufs =
  if m < 1 || n < 1 then
    invalid_arg "Engine_select.dispatch_batch: bad shape";
  FF.transpose_batch ~cache:t.cache pool ~m ~n bufs
