"""Sanity tests over the calibrated power constants."""

import pytest

from repro.soc.power_profiles import pixel_xl_profiles


@pytest.fixture(scope="module")
def profiles():
    return pixel_xl_profiles()


class TestCalibrationInvariants:
    def test_big_cores_cost_more_per_cycle(self, profiles):
        assert profiles.cpu.big_energy_per_cycle > profiles.cpu.little_energy_per_cycle

    def test_sleep_cheaper_than_idle_everywhere(self, profiles):
        for name in ("gpu", "display", "video_codec", "audio_codec", "isp",
                     "dsp", "sensor_hub"):
            ip = getattr(profiles, name)
            assert ip.sleep_power_watts < ip.idle_power_watts, name

    def test_gps_is_the_power_hungry_sensor(self, profiles):
        mems = (profiles.touch, profiles.gyro, profiles.accel)
        assert all(
            profiles.gps.sample_energy_joules > 100 * s.sample_energy_joules
            for s in mems
        )

    def test_camera_frame_costs_more_than_touch(self, profiles):
        assert profiles.camera.sample_energy_joules > \
            100 * profiles.touch.sample_energy_joules

    def test_display_is_the_big_idle_ip(self, profiles):
        others = (profiles.gpu, profiles.video_codec, profiles.audio_codec,
                  profiles.isp, profiles.dsp, profiles.sensor_hub)
        assert all(
            profiles.display.idle_power_watts > ip.idle_power_watts
            for ip in others
        )

    def test_platform_floor_positive(self, profiles):
        assert 0.0 < profiles.platform_floor_watts < 1.0

    def test_wake_energies_amortise_over_a_frame(self, profiles):
        # Sleeping between 60 Hz frames must be net-positive for the GPU
        # (the Max-IP premise): idle power over 16 ms > wake energy.
        frame_s = 1.0 / 60.0
        assert profiles.gpu.idle_power_watts * frame_s > \
            profiles.gpu.wake_energy_joules
