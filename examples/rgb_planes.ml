(* Interleaved-to-planar image conversion as an in-place transpose.

   Images usually arrive interleaved (RGBRGBRGB...), but per-channel
   processing wants planar storage (RRR...GGG...BBB). With pixels as
   3-byte blob elements... actually each CHANNEL BYTE is the element: the
   interleaved image is a (width*height) x 3 row-major matrix of bytes,
   and the planar image is its 3 x (width*height) transpose. This example
   does the conversion in place using the byte-blob storage instance, on
   a synthetic image, and verifies both directions.

   Run with: dune exec examples/rgb_planes.exe *)

open Xpose_core

module Px = Storage.Blob (struct
  let elt_bytes = 1 (* one channel byte per element *)
end)

module A = Algo.Make (Px)

let width = 640
let height = 360
let channels = 3

let synth_channel_value ~pixel ~channel =
  (pixel * 7 * (channel + 1)) land 0xff

let () =
  let pixels = width * height in
  (* Interleaved: element (p, c) at p*channels + c. *)
  let img = Px.create (pixels * channels) in
  for p = 0 to pixels - 1 do
    for c = 0 to channels - 1 do
      Px.set img ((p * channels) + c)
        (Px.of_int (synth_channel_value ~pixel:p ~channel:c))
    done
  done;

  (* Interleaved -> planar: transpose the pixels x channels matrix. *)
  let t0 = Xpose_obs.Clock.now_ns () in
  A.transpose ~m:pixels ~n:channels img;
  let dt = (Xpose_obs.Clock.now_ns () -. t0) /. 1e9 in

  (* Planar: channel c occupies [c * pixels, (c+1) * pixels). *)
  let ok = ref true in
  for c = 0 to channels - 1 do
    for p = 0 to pixels - 1 do
      if
        Px.to_int (Px.get img ((c * pixels) + p))
        <> synth_channel_value ~pixel:p ~channel:c
      then ok := false
    done
  done;
  Printf.printf
    "interleaved -> planar of a %dx%d RGB image in place: %s (%.1f ms)\n"
    width height
    (if !ok then "verified" else "FAILED")
    (dt *. 1e3);

  (* Channel-wise processing is now a contiguous scan; e.g. the mean of
     the green plane: *)
  let green_base = 1 * pixels in
  let sum = ref 0 in
  for p = 0 to pixels - 1 do
    sum := !sum + Px.to_int (Px.get img (green_base + p))
  done;
  Printf.printf "mean green value: %.2f\n"
    (float_of_int !sum /. float_of_int pixels);

  (* And back to interleaved for the encoder. *)
  A.transpose ~m:channels ~n:pixels img;
  let ok = ref true in
  for p = 0 to pixels - 1 do
    for c = 0 to channels - 1 do
      if
        Px.to_int (Px.get img ((p * channels) + c))
        <> synth_channel_value ~pixel:p ~channel:c
      then ok := false
    done
  done;
  Printf.printf "planar -> interleaved round trip: %s\n"
    (if !ok then "verified" else "FAILED")
