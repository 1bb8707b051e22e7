"""Benchmark workloads and their golden output digests.

Each workload runs one shipped figure config at a fixed trial count. Why
each one is here:

- ``fig2-nondiag``: the only workload where setup dominates. Picking
  f = centroid enumerates ~290k region shifts, and tau runs up to 85, so the
  error-ball tables are large and trials fall on both sides of both
  guarantees (~47.6 single, ~79.4 two-stage).
- ``fig3-multistage``: f is explicit, so setup is milliseconds and nearly all
  time goes to trials: six moduli, three robust instances per trial, and
  exact-rational CVP in the last stage.
- ``fig3-single``: the bound is 1/4, so almost every trial stops with
  ``Inconsistent`` partway through the CRT fold. It shows a change that
  speeds up consistent solves but slows down the early exit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    config: str  # relative to the checkout root
    reconstructors: tuple[str, ...]
    trials: int  # per tau and reconstructor; the digests below pin this count


WORKLOADS = {
    "fig2-nondiag": Workload("configs/fig2_nondiag.cfg", ("single", "multistage"), 10),
    "fig3-multistage": Workload("configs/fig3.cfg", ("multistage",), 40),
    "fig3-single": Workload("configs/fig3.cfg", ("single",), 40),
}

# The seed every shipped config uses; the benchmark's default seed.
DEFAULT_SEED = 20250809

# sha256 of (summary CSV, raw CSV) per (workload, seed) at the trial counts
# above. The summary CSV is byte-identical to what
# ``mdcrt simulate|multistage|robust <config> --trials N`` prints.
DIGESTS: dict[tuple[str, int], tuple[str, str]] = {
    ("fig2-nondiag", 20250809): ("194080bdba7ee399421b07b2197e55bc8d4de40a7095ce90c7506144c890e40c", "3c9f4ffbb99b6312310a545c0dd1ef096ad4aae0403988975c0ad8e7fb48b115"),
    ("fig2-nondiag", 0): ("ca104cbf25fd61c75c1d0da3c3876fce8a4c35f9e40589c189ab46a4443294eb", "926d3e69a8fe4f5cfd2e866a52d553cc0ee149aa8e3b4fba45d9e1b02c65a748"),
    ("fig2-nondiag", 1): ("9c2af0cc220b6d9fe305eb83ca23db0f4b39bb98a452cc304e955965b5ecfb25", "84351568e8588cad4422cbd6a73fc4f10b42f1881c0f899b2de4ece953d88e84"),
    ("fig2-nondiag", 2): ("21115c170ef5dc238f115e213559502470995e77c30ff4b84b8137006f5b8544", "9df75b293284bef367069cb0d89fe223bde3cd172c50314877998da716a02f76"),
    ("fig2-nondiag", 3): ("9b65c28cc95dbf5f4aa3292f0016979cfbc431544f281e9327569506636d962e", "58628ab7b5de42643ca186060244757be1f2eb66696e222307f2ed3113178820"),
    ("fig2-nondiag", 4): ("cc13f9896806cd65f9c0263f8d7da4cef81e9f52fd3203426ad0c86052962c00", "56e25eed2e57cc412023a0d4b862005dd13a29b9da8218b7e94ca49632b2ff3e"),
    ("fig2-nondiag", 5): ("38535306ec4d10882e39a6f9eb197a16e4c3c7a1095291175dbdf2df5ba3a05b", "bac62a2b3da84cd773754fa0e8d9d7bbe55ccfdc149b4cbf4e2e794485c9ebc9"),
    ("fig2-nondiag", 6): ("5ddffdcc2029109a94e580c786f7fc46e21ec6fc17d6a29e4302db3ac3b70892", "305e9211a3b149a32eeda2b758306c25786b8a4cdcc7ad5fd7a185dfdc2ffc64"),
    ("fig2-nondiag", 7): ("029684d0c9c8e7ae232d94284ed2db0bda639b1af8d58dcc6adc5b1e9938b120", "409b4a0db8b38c7d42ee9c5eda01917ac96f377f43192fe39a6b615c8865a0b7"),
    ("fig2-nondiag", 8): ("42cf943671367954f009c706c42c3e9dd7739b10e6f70733bd2dae5e71359d40", "f075ec372f3f2f6bc1f9ed831d1c16779183c36a93a6a5d36a8462293e10dae4"),
    ("fig2-nondiag", 9): ("dc0df9f25dd9c2aa617145a7390ae175dc9bcf8687888cdb1216efe063623d4a", "012378f1f185204976f610b39c5161fb7de8053e5247239c8997f2a87942fa1e"),
    ("fig2-nondiag", 10): ("03750048384c4c52558f34530d0642e39db832daa5fac301a9d7953c17bc4fa6", "053d0dff24659044e40f7d3a79758be767375cf7691440e678a79d4c27fcea8d"),
    ("fig3-multistage", 20250809): ("3b6ad4da479e13817e88f05f8b62c8dfbb89baeaba4d309d7549b55ce40ae95f", "112c72d64a8b657f7c38acc3de59af31d8bd8d2d6639d0eaa9164a4e230e42e0"),
    ("fig3-multistage", 0): ("2e6a99fedfcfc92c80790fcfbf7a51c61d840814c05b682776adc9ed8386109c", "6db1d22468d489c125252a88b07d29e143149a73bee81a881a4ee1e08711dab0"),
    ("fig3-multistage", 1): ("2d4fc523d1a03d952fe07171bb34060794b89def2bf20530ac1a977f481a263c", "85ba0b08654fa1deccfdfdb58e0d97b569867d8d5fdfa9446fb341613273c8ac"),
    ("fig3-multistage", 2): ("e774f7bb232592b956b0aea9ebb095d6dc9cbb979a9d55cee463dbffab24e066", "90d5502576d5da79a04d17c1ffef26e8226de3aa2c36a9fccb6202f2899c7267"),
    ("fig3-multistage", 3): ("33c22d4136899ec3fd269bd818634ec5fbef51d24a7be5adddbfa5083efc5d42", "99894cb9015f0c2a90b16cc8935c1ee7445836a5bd8fa987b14e3e11ccf4b340"),
    ("fig3-multistage", 4): ("1fffcc73b7c21705fac0fad6dfb57f6c7bc6fc407f9545365a1a097c6d0b393f", "891bf1833fc6bc4c196e871795d0aad77afc2e405de6aab4b29ec54b13f84dfd"),
    ("fig3-multistage", 5): ("cccdae5e54a1e26f337230b8ad01155e220595e7bf5e91de3333dfed8ccdc3af", "50c8c6249313ea1543ebeb0e37960c3ef6f5e07b4c03658d1c250c2f40c54a3a"),
    ("fig3-multistage", 6): ("1c580a60cbe53618b7c09f205f7c75be8ff78260736282c8c2f4f17baaa8df94", "bf57a8fd78ea25633b9efdf7987a9214540d90dfcbb3d015983b3cc821717fae"),
    ("fig3-multistage", 7): ("9b27d2ec03bccc4e105f4b77ab7e1b462631808d8569a165cba864a1845c9de1", "f056df35d21700e53389987d59e0893136949aa821a323c01186ce2b3f459ff2"),
    ("fig3-multistage", 8): ("33449454e108222f2283f290aa90eb5cffa0a753e71d8e5bf2650ae82db5423c", "d91b9f8ef4e278cce87efe70c23eba0f89609bdfb956ae9a4103feb59546410e"),
    ("fig3-multistage", 9): ("0249c7c5ed3f6d3e69ee59474c07e0ab7f8b406a8724ef63ffec3d7fb46a291f", "9f7da3a4858eeb3cb7b27594befbe41d041dcee8b1ccfc15b34736d3fdd38a6e"),
    ("fig3-multistage", 10): ("10a0a8390b8ea64e152234cd38109807049e8ac669c6417a8a08cd4c4f069c25", "d27545de86353900977400284d56c04dcbde41dadb44facd57c68dd9884c8d39"),
    ("fig3-single", 20250809): ("96e9a9bf4310883ef2cf9deb52e03dc247a68b7ca614983008ea21c3700d731f", "c23a9ecc7375064e1138e5343421194e5cebf48ba45fbf3f2027247f8e3cfa61"),
    ("fig3-single", 0): ("3ebc492024da1e4d3f27c07902911853a89beb1ce15d7c2e1ab969b0f89d301d", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 1): ("51faa04c5c6753765bab49745b4651cd3b4cc7fe05914d482ebcf13a592cb7e6", "294d741b0a5b0b0408da5d8b34a24525e7b65be618710776c83d045b38468a0a"),
    ("fig3-single", 2): ("6dfea76be5780baa75138ce12d5625e137568ad93cf776a1b3a9548b6207cf64", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 3): ("1a03d48d5884d54cc6d4dfb466a0b9ae1d3c5e88df215fef1630cadf35fcd6bf", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 4): ("e75a937dd10a26c8520a667ffc6006760133181fb7e5cf664c25df48f8393ee7", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 5): ("612b2a0cfd63b0d07a352468175853c397f00b659bc95e8f881ad16386cc8559", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 6): ("5c33f1118afafd93388253fa4114bb5a0691775ec7cf2830b763e5a19f47f007", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 7): ("141715d4b99fe5f67e1490e3b9988e71a22277bfcb299496d89b7084ffc580d6", "a9ea0bf69d3d1d26f1b770ebbd31b5b00067963f1ed49d9761994fd999deae33"),
    ("fig3-single", 8): ("cacd1bb7c6980925c492ff803d54d8b6e7337aa389c08d5a776b0f9912c9b7ce", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 9): ("81c553e864f8f2ad9e8e19dfe5e2aa11378c84ba458ab2bce6f9febcbc31f0d1", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
    ("fig3-single", 10): ("e6498fa28d2bb4f1f9ac363f36158ab2a65d2eb04a98c7237201e28bfaa5f018", "59201a9c97a32c9b8d22ca3a7956cb731a350db87cee10247c013229d4a77a98"),
}
